// Package held pins blocking-while-locked: direct blocking ops under
// a guards-annotated mutex, a cross-package call classified through
// its LockSummary fact, the `// locked:` seeded held set, and the
// unionlint:allow lockorder exception (reason mandatory).
package held

import (
	"sync"
	"time"

	"repro/internal/locks/blocking"
)

// Box is locked state with a channel.
type Box struct {
	mu sync.Mutex // guards: v
	v  int
	ch chan int
}

// SleepLocked sleeps with the lock held.
func (b *Box) SleepLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // want "may block indefinitely"
}

// PushLocked calls a blocking function from another package while
// locked; the Blocks reason arrives via blocking.Upstream's fact.
func (b *Box) PushLocked() {
	b.mu.Lock()
	blocking.Upstream() // want "may block indefinitely"
	b.mu.Unlock()
}

// RecvLocked receives from a channel while locked.
func (b *Box) RecvLocked() {
	b.mu.Lock()
	b.v = <-b.ch // want "may block indefinitely"
	b.mu.Unlock()
}

// PollLocked is fine: a select with a default case never blocks.
func (b *Box) PollLocked() {
	b.mu.Lock()
	select {
	case v := <-b.ch:
		b.v = v
	default:
	}
	b.mu.Unlock()
}

// UnlockedSleep is fine: the sleep happens after the unlock.
func (b *Box) UnlockedSleep() {
	b.mu.Lock()
	b.v++
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// flushLocked blocks while its callers hold mu by contract.
//
// locked: mu
func (b *Box) flushLocked() {
	time.Sleep(time.Millisecond) // want "may block indefinitely"
}

// AllowedSleep is a reviewed, bounded wait: the annotation (with its
// mandatory reason) suppresses the diagnostic.
func (b *Box) AllowedSleep() {
	b.mu.Lock()
	// unionlint:allow lockorder bounded 1ms settle wait, reviewed: no other path takes mu meanwhile
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}

// BareAllow forgets the reason: the annotation still suppresses, but
// is itself reported.
func (b *Box) BareAllow() {
	b.mu.Lock()
	/* unionlint:allow lockorder */ // want "needs a reason"
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}
