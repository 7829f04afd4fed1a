package server

import (
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/wire"
)

// TestQueriesRacingFirstAbsorb runs a flat query and a group snapshot
// in a tight loop beside a fresh coordinator's first absorb. A group
// must hold its first sketch from the moment it is published in
// s.groups: a reader that finds one without a sketch calls a method
// on a nil g.sk, and on the TCP path that panic kills the coordinator.
func TestQueriesRacingFirstAbsorb(t *testing.T) {
	sk := kmv.New(64, 42)
	for i := uint64(0); i < 100; i++ {
		sk.Process(i)
	}
	env, err := sketch.Envelope(sk)
	if err != nil {
		t.Fatal(err)
	}
	// When a group could be published before it held a sketch, a
	// reader panicked within a thousand rounds (about 250 on average
	// on a 2-vCPU VM).
	for round := 0; round < 5000 && !t.Failed(); round++ {
		s := New(Config{})
		spinning, absorbed := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("round %d: a reader panicked beside the first absorb: %v", round, r)
				}
			}()
			close(spinning)
			// Both calls fail with "no sketches absorbed yet" until
			// the group is published; the errors are beside the point.
			for {
				select {
				case <-absorbed:
					return
				default:
				}
				_, _ = s.answer(wire.Query{Kind: wire.QueryDistinct})
				_, _ = s.Snapshots()
			}
		}()
		<-spinning
		if err := s.AbsorbNamed("", env); err != nil {
			t.Error(err)
		}
		close(absorbed)
		wg.Wait()
	}
}
