package server_test

// Regression suite for the durability layer's worst interleaving:
// snapshot rounds (timer-driven, explicit, and one injected mid-drain)
// racing concurrent site pushes and Shutdown. The WAL's round
// (round.go, shared with the relay's flushes) serializes rounds,
// absorb holds only the seal read-lock across append+merge, and
// Shutdown's final snapshot waits out a round in flight and must
// capture every acked envelope — so the whole dance has to finish
// without deadlock and leave the rebooted coordinator bit-identical
// to a direct-absorb control. Run under -race (ci.sh always does).

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/server"
)

// TestWALRacesShutdownDrain drives concurrent site pushes and a
// SnapshotWAL hammer against a durable coordinator whose snapshot
// timer actually fires, then shuts it down while the ServerDrain
// failpoint injects one more snapshot in the middle of the drain —
// the exact "snapshot fires mid-shutdown" schedule the round token
// exists for.
func TestWALRacesShutdownDrain(t *testing.T) {
	envs := relayEnvelopes(t, 24)
	dir := t.TempDir()
	srv := server.New(server.Config{WAL: &server.WALConfig{
		Dir:           dir,
		SegmentBytes:  256,
		SnapshotEvery: 2 * time.Millisecond, // the timer races for real
	}})
	addr, done := startCrashable(t, srv)
	ref := controlSnapshots(t, envs)

	// Fire a snapshot deterministically in the middle of the drain.
	var drainSnaps atomic.Int32
	failpoint.Enable(failpoint.ServerDrain, func() error {
		drainSnaps.Add(1)
		srv.SnapshotWAL() // a concurrent round; skipping is legal, wedging is not
		return nil
	})
	defer failpoint.Disable(failpoint.ServerDrain)

	// A snapshot hammer: explicit rounds racing the timer's.
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
				srv.SnapshotWAL()
			}
		}
	}()

	// Concurrent site pushes while snapshots cut underneath them.
	var pushWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		pushWG.Add(1)
		go func(w int) {
			defer pushWG.Done()
			cl := testClient(addr)
			for i := w; i < len(envs); i += 3 {
				if _, err := cl.Push(envs[i]); err != nil {
					t.Errorf("push %d: %v", i, err)
				}
			}
		}(w)
	}
	pushWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with snapshots racing the drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	close(hammerDone)
	hammerWG.Wait()
	if drainSnaps.Load() == 0 {
		t.Fatal("ServerDrain failpoint never fired: the mid-drain snapshot this test exists for did not happen")
	}

	// Every acked push survived the snapshot storm: the reboot lands
	// bit-identical to a coordinator that absorbed each push directly.
	boot := rebootRecovered(t, dir)
	snaps, err := boot.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "rebooted after snapshot storm", snaps, ref)
	boot.Abort()
}

// TestWALShutdownSnapshotWaitsForInFlightRound pins the final
// snapshot's one difference from every other round: it must not skip.
// An explicit SnapshotWAL can still be writing a snapshot cut before
// the last pushes when Shutdown drains; were the final snapshot to
// skip, the log would close under that round and no snapshot would
// cover those pushes, so the next boot would replay them as raw
// records.
func TestWALShutdownSnapshotWaitsForInFlightRound(t *testing.T) {
	envs := relayEnvelopes(t, 4)
	ref := controlSnapshots(t, envs)
	dir := t.TempDir()
	srv := server.New(server.Config{WAL: testWALConfig(dir)})
	addr, done := startCrashable(t, srv)
	pushAll(t, addr, envs[:2])

	// Park an explicit round inside the log's snapshot write, after its
	// cut was pinned and its groups collected.
	entered, release := make(chan struct{}), make(chan struct{})
	var hits atomic.Int32
	failpoint.Enable(failpoint.WALSnapshot, func() error {
		if hits.Add(1) == 1 {
			close(entered)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
		return nil
	})
	defer failpoint.Disable(failpoint.WALSnapshot)
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		if _, err := srv.SnapshotWAL(); err != nil {
			t.Errorf("in-flight round: %v", err)
		}
	}()
	<-entered
	pushAll(t, addr, envs[2:]) // logged after the parked round's cut

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain time to reach the parked round before releasing
	// it; a final snapshot that skips instead of waiting closes the log
	// in this window.
	select {
	case err := <-shutdownDone:
		shutdownDone <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	<-roundDone
	failpoint.Disable(failpoint.WALSnapshot)

	boot := rebootRecovered(t, dir)
	defer boot.Abort()
	snaps, err := boot.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "restart after a final snapshot raced an explicit round", snaps, ref)
	if n := boot.Stats().WAL.ReplayedRecords; n != 0 {
		t.Fatalf("restart replayed %d raw records: the final snapshot did not cover the pushes after the in-flight round's cut", n)
	}
}

// TestWALRotateErrorsSurfaceInStats: with rotation faulted, pushes are
// still logged and acked, and /statsz counts the failures in
// wal.rotate_errors and names the latest in wal.last_error.
func TestWALRotateErrorsSurfaceInStats(t *testing.T) {
	failpoint.Enable(failpoint.WALRotate, failpoint.Error(errors.New("injected rotate failure")))
	defer failpoint.Disable(failpoint.WALRotate)

	srv := server.New(server.Config{WAL: &server.WALConfig{
		Dir:           t.TempDir(),
		SegmentBytes:  1, // every append rotates
		SnapshotEvery: time.Hour,
	}})
	defer srv.Abort()
	envs := relayEnvelopes(t, 3)
	for i, env := range envs {
		if err := srv.Absorb(env); err != nil {
			t.Fatalf("push %d refused with rotation faulted: %v", i, err)
		}
	}
	ws := srv.Stats().WAL
	if ws.RotateErrors != int64(len(envs)) || ws.AppendErrors != 0 || ws.AppendedRecords != int64(len(envs)) {
		t.Errorf("rotate_errors=%d append_errors=%d appended_records=%d, want %d, 0, %d",
			ws.RotateErrors, ws.AppendErrors, ws.AppendedRecords, len(envs), len(envs))
	}
	if !strings.Contains(ws.LastError, "injected rotate failure") {
		t.Errorf("last_error = %q, want the rotation failure", ws.LastError)
	}
}
