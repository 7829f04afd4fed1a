package server_test

// Regression suite for the durability layer's worst interleaving:
// snapshot rounds (timer-driven, explicit, and one injected mid-drain)
// racing concurrent site pushes and Shutdown. The snapshotting flag in
// walState serializes rounds, absorb holds only the seal read-lock
// across append+merge, and Shutdown's final snapshot must capture
// every acked envelope — so the whole dance has to finish without
// deadlock and leave the rebooted coordinator bit-identical to a
// direct-absorb control. Run under -race (ci.sh always does).

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
// the exact "snapshot fires mid-shutdown" schedule the snapshotting
// flag exists for.
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
