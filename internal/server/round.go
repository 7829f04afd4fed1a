package server

import (
	"sync/atomic"
	"time"
)

// round serializes one kind of periodic pass over the groups — the
// relay's flush rounds or the WAL's snapshot rounds — so two rounds
// never interleave their snapshots of the same group. A timer tick or
// an explicit call that finds a round running skips (try): the
// running round covers what it snapshotted, and the next tick catches
// the rest. Shutdown's final round has no next tick, so it waits for
// the running one instead (wait).
type round struct {
	// token holds one value while a round runs. It must be made with
	// capacity one: with a nil token, try skips every round and wait
	// blocks forever.
	token chan struct{}
	// skips counts rounds try skipped because one was running.
	skips atomic.Int64
}

// try runs f unless a round is already running, in which case it
// counts the skip and returns (0, nil).
func (r *round) try(f func() (int, error)) (int, error) {
	select {
	case r.token <- struct{}{}:
	default:
		r.skips.Add(1)
		return 0, nil
	}
	defer func() { <-r.token }()
	return f()
}

// wait runs f once no other round is running.
func (r *round) wait(f func() (int, error)) (int, error) {
	r.token <- struct{}{}
	defer func() { <-r.token }()
	return f()
}

// tick is the timer goroutine: until quit closes, it tries a round
// every period and whenever nudge fires (a nil nudge never does), and
// hands each failed round's error to report. The final round is
// Shutdown's, not this loop's.
func (r *round) tick(quit <-chan struct{}, period time.Duration, nudge <-chan struct{}, f func() (int, error), report func(error)) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
		case <-nudge:
		}
		if _, err := r.try(f); err != nil {
			report(err)
		}
	}
}
