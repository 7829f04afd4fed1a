package distsim

import "sync"

// ByteAccountant is the byte accounting of the distributed model: it
// tracks total and per-site message bytes. The in-process channel
// simulator here and the loopback TCP transport in internal/distnet
// both record each site's one-shot message through it, so experiments
// report identical communication costs no matter how the messages
// physically traveled. It is safe for concurrent use — sites finish
// (and therefore report) in arbitrary order.
type ByteAccountant struct {
	mu       sync.Mutex // guards: perSite, messages, total, maxMsg
	perSite  map[int]int64
	messages int
	total    int64
	maxMsg   int
}

// NewByteAccountant returns an empty accountant.
func NewByteAccountant() *ByteAccountant {
	return &ByteAccountant{perSite: make(map[int]int64)}
}

// Record notes that site sent one message of messageBytes bytes.
func (a *ByteAccountant) Record(site, messageBytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.messages++
	a.total += int64(messageBytes)
	a.perSite[site] += int64(messageBytes)
	if messageBytes > a.maxMsg {
		a.maxMsg = messageBytes
	}
}

// Messages returns the number of messages recorded.
func (a *ByteAccountant) Messages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.messages
}

// TotalBytes returns the total communication across all sites.
func (a *ByteAccountant) TotalBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// MaxMessageBytes returns the largest single message recorded.
func (a *ByteAccountant) MaxMessageBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxMsg
}

// SiteBytes returns the bytes recorded for one site.
func (a *ByteAccountant) SiteBytes(site int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.perSite[site]
}

// FillStats copies the accounting totals into st's communication
// fields (Messages, BytesSent, MaxSiteBytes), leaving the rest of st
// untouched.
func (a *ByteAccountant) FillStats(st *Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st.Messages = a.messages
	st.BytesSent = a.total
	st.MaxSiteBytes = a.maxMsg
}
