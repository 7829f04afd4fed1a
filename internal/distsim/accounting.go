package distsim

import "sync"

// ByteAccountant is the byte accounting of the distributed model: it
// totals the one-shot messages the sites send. The in-process
// simulator (Run) and the loopback TCP transport in internal/distnet
// both record each site's message through it, so experiments report
// identical communication costs no matter how the messages physically
// traveled. It is safe for concurrent use — sites finish (and
// therefore report) in arbitrary order.
type ByteAccountant struct {
	mu       sync.Mutex // guards: messages, total, maxMsg
	messages int
	total    int64
	maxMsg   int
}

// NewByteAccountant returns an empty accountant.
func NewByteAccountant() *ByteAccountant { return &ByteAccountant{} }

// Record notes one message of messageBytes bytes.
func (a *ByteAccountant) Record(messageBytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.messages++
	a.total += int64(messageBytes)
	if messageBytes > a.maxMsg {
		a.maxMsg = messageBytes
	}
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
