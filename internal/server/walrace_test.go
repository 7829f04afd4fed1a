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
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
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

// TestWALCleanShutdownReplaysNoRecords: with the default 4 MiB
// segments, every push lands in the active segment. Shutdown seals
// that segment before its final snapshot, so the snapshot prunes it
// and the next boot replays the snapshot alone. Were the snapshot to
// cut at the unsealed segment, the reboot would merge both pushes
// again on top of it.
func TestWALCleanShutdownReplaysNoRecords(t *testing.T) {
	boot := cleanRestart(t, nil)
	st := boot.Stats()
	if st.WAL.ReplayedSnapshotGroups != 1 || st.WAL.ReplayedRecords != 0 || st.SketchesAbsorbed != 1 {
		t.Fatalf("restart replayed %d snapshot groups and %d records (%d sketches absorbed); want 1 group, 0 records and 1 sketch",
			st.WAL.ReplayedSnapshotGroups, st.WAL.ReplayedRecords, st.SketchesAbsorbed)
	}
}

// TestWALShutdownSealFailureKeepsOldCut: a seal that fails is counted
// in wal.rotate_errors and named in wal.last_error, and the final
// snapshot still runs, at the old cut, so the reboot replays both
// records on top of it and still equals the control.
func TestWALShutdownSealFailureKeepsOldCut(t *testing.T) {
	failpoint.Enable(failpoint.WALRotate, failpoint.Error(errors.New("injected seal failure")))
	defer failpoint.Disable(failpoint.WALRotate)
	boot := cleanRestart(t, func(srv *server.Server) {
		ws := srv.Stats().WAL
		if ws.RotateErrors != 1 || !strings.Contains(ws.LastError, "injected seal failure") || ws.Snapshots != 1 {
			t.Errorf("after a failed seal: rotate_errors %d, last_error %q, snapshots %d; want 1, the injected failure, 1",
				ws.RotateErrors, ws.LastError, ws.Snapshots)
		}
		failpoint.Disable(failpoint.WALRotate)
	})
	if st := boot.Stats(); st.WAL.ReplayedSnapshotGroups != 1 || st.WAL.ReplayedRecords != 2 {
		t.Fatalf("restart replayed %d snapshot groups and %d records; want 1 and 2", st.WAL.ReplayedSnapshotGroups, st.WAL.ReplayedRecords)
	}
}

// cleanRestart absorbs two sites' kmv sketches of one seed (one merge
// group) into a durable coordinator with the default segment size,
// shuts it down, calls stopped (if not nil) with the stopped
// coordinator, and reboots one from its log, which must equal the
// control.
func cleanRestart(t *testing.T, stopped func(*server.Server)) *server.Server {
	t.Helper()
	var envs [][]byte
	for site := uint64(0); site < 2; site++ {
		sk := kmv.New(4, 5000)
		for x := uint64(0); x < 32; x++ {
			sk.Process(x*7 + site)
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	cfg := server.WALConfig{Dir: t.TempDir()}
	srv := server.New(server.Config{WAL: &cfg})
	for _, env := range envs {
		if err := srv.AbsorbNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if stopped != nil {
		stopped(srv)
	}

	boot := server.New(server.Config{WAL: &cfg})
	t.Cleanup(boot.Abort)
	if _, err := boot.SnapshotWAL(); err != nil {
		t.Fatalf("recovery on reboot: %v", err)
	}
	snaps, err := boot.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "restart after a clean shutdown", snaps, controlSnapshots(t, envs))
	return boot
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
		if err := srv.AbsorbNamed("", env); err != nil {
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
