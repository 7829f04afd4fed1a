package server_test

// Regression suite for the relay tier's worst interleaving: flush
// rounds (timer-driven and explicit) racing Shutdown's drain. The
// relay's round (round.go, shared with the WAL's snapshots)
// serializes rounds, Shutdown must never hold a lock across the
// upstream push, and the drain flush must wait out a round in flight
// and still deliver every dirty group — so the whole dance has to
// finish without deadlock and leave the parent bit-identical to a
// coordinator that absorbed every site push directly. Run under -race
// (ci.sh always does).

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/server"
)

// TestRelayFlushRacesShutdownDrain drives concurrent site pushes and
// a FlushRelay hammer against a child whose flush timer actually
// fires, then shuts the child down while the ServerDrain failpoint
// injects one more flush in the middle of the drain — the exact
// "flush fires mid-drain" schedule the round token exists for.
func TestRelayFlushRacesShutdownDrain(t *testing.T) {
	envs := relayEnvelopes(t, 24)
	parent, child, childAddr := relayPair(t, server.RelayConfig{
		FlushInterval: 2 * time.Millisecond, // the timer races for real
	})
	control := server.New(server.Config{})
	controlAddr := startServer(t, control)

	// Fire a flush deterministically in the middle of the drain: the
	// failpoint sits after Shutdown stops accepting and before it
	// waits out the connection drain and runs the final drain flush.
	var drainFlushes atomic.Int32
	failpoint.Enable(failpoint.ServerDrain, func() error {
		drainFlushes.Add(1)
		child.FlushRelay() // a concurrent round; skipping is legal, wedging is not
		return nil
	})
	defer failpoint.Disable(failpoint.ServerDrain)

	// A flush hammer: explicit rounds racing the timer's.
	hammerDone := make(chan struct{})
	var hammerWG sync.WaitGroup
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		for {
			select {
			case <-hammerDone:
				return
			default:
				child.FlushRelay()
			}
		}
	}()

	// Concurrent site pushes while flushes fire underneath them.
	var pushWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		pushWG.Add(1)
		go func(w int) {
			defer pushWG.Done()
			cl := testClient(childAddr)
			for i := w; i < len(envs); i += 3 {
				if _, err := cl.Push(envs[i]); err != nil {
					t.Errorf("push %d: %v", i, err)
				}
			}
		}(w)
	}
	pushWG.Wait()
	pushAll(t, controlAddr, envs)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := child.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with flush racing the drain: %v", err)
	}
	close(hammerDone)
	hammerWG.Wait()
	if drainFlushes.Load() == 0 {
		t.Fatal("ServerDrain failpoint never fired: the mid-drain flush this test exists for did not happen")
	}

	// The drain flush must have delivered every group's final state:
	// parent bit-identical to the direct-absorb control.
	parentSnaps, err := parent.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	controlSnaps, err := control.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(parentSnaps) != len(envs) || len(controlSnaps) != len(envs) {
		t.Fatalf("snapshot counts: parent %d, control %d, want %d",
			len(parentSnaps), len(controlSnaps), len(envs))
	}
	for i := range parentSnaps {
		p, c := parentSnaps[i], controlSnaps[i]
		if p.Digest != c.Digest || !bytes.Equal(p.Envelope, c.Envelope) {
			t.Fatalf("group %016x diverged between relayed parent and direct control", p.Digest)
		}
	}
}

// TestRelayDrainWaitsForInFlightRound pins the drain flush's one
// difference from every other round: it must not skip. An explicit
// FlushRelay can outlive the relay timer and still be pushing a
// snapshot taken before the last absorb when Shutdown drains; no later
// tick will deliver that absorb, so the drain waits the round out and
// then flushes what it left dirty.
func TestRelayDrainWaitsForInFlightRound(t *testing.T) {
	envs := relayEnvelopes(t, 2)
	parent, child, childAddr := relayPair(t, server.RelayConfig{})
	pushAll(t, childAddr, envs[:1])

	// Park the round's upstream push inside the parent's absorb, after
	// its snapshot of group 0 was taken. Later absorbs pass through.
	entered, release := make(chan struct{}), make(chan struct{})
	var hits atomic.Int32
	failpoint.Enable(failpoint.ServerAbsorb, func() error {
		if hits.Add(1) == 1 {
			close(entered)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
		return nil
	})
	defer failpoint.Disable(failpoint.ServerAbsorb)
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		if _, err := child.FlushRelay(); err != nil {
			t.Errorf("in-flight round: %v", err)
		}
	}()
	<-entered
	pushAll(t, childAddr, envs[1:]) // dirty, and not in the parked round's snapshot

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- child.Shutdown(ctx)
	}()
	// Give the drain time to reach the parked round before releasing
	// it; a drain that skips instead of waiting returns in this window.
	select {
	case err := <-shutdownDone:
		shutdownDone <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-roundDone

	snaps, err := parent.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "relayed parent", snaps, controlSnapshots(t, envs))
}
