package server_test

// The WAL crash-recovery matrix: kill the coordinator at every named
// wal/* failpoint — plus a mid-append torn tail — and assert the
// rebooted daemon, after the fleet's at-least-once retries, converges
// bit-identically to an uninterrupted control. One suite per
// topology: plain coordinator here (TestWALRecoverySingleTopology),
// relay shard → durable parent here (TestWALRecoveryRelayTopology),
// and the 3-shard cluster in internal/distnet.
//
// The crash is the failpoint harness pulling a real trigger: the
// site's Nth hit (seed-derived) starts the server's crash switch
// (Abort — no drain, no final snapshot) and fails every absorb from
// that instant, exactly the window a SIGKILL would tear open. Run
// with -chaos.seed=N to move the crash point; ci.sh sweeps 1..3.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

var errInjectedCrash = errors.New("injected crash")

// walCrashLegs names the matrix rows: each wal/* failpoint, plus the
// torn-tail leg (the zero site) where the crash damage is applied
// directly to the segment file after an abrupt Abort.
var walCrashLegs = []struct {
	name string
	site failpoint.Site
}{
	{"append", failpoint.WALAppend},
	{"fsync", failpoint.WALFsync},
	{"rotate", failpoint.WALRotate},
	{"snapshot", failpoint.WALSnapshot},
	{"dirsync", failpoint.WALDirSync},
	{"torn-tail", failpoint.Site{}},
}

// testWALConfig is the matrix's log shape: segments small enough that
// every push rotates (so wal/rotate fires), snapshots driven
// explicitly by the test, never by the timer.
func testWALConfig(dir string) *server.WALConfig {
	return &server.WALConfig{Dir: dir, SegmentBytes: 256, SnapshotEvery: time.Hour}
}

// controlSnapshots absorbs every message once into a fresh
// coordinator and returns its sorted group snapshots — the
// uninterrupted ground truth each crashed-and-recovered run must
// reproduce byte for byte.
func controlSnapshots(t *testing.T, msgs [][]byte) []server.GroupSnapshot {
	t.Helper()
	ctrl := server.New(server.Config{})
	for _, m := range msgs {
		if err := ctrl.AbsorbNamed("", m); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := ctrl.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// assertSnapshotsEqual compares two sorted snapshot slices
// bit-identically.
func assertSnapshotsEqual(t *testing.T, label string, got, want []server.GroupSnapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered coordinator holds %d groups, control holds %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Digest != want[i].Digest {
			t.Fatalf("%s: group %d is %s/%016x, control has %s/%016x",
				label, i, got[i].KindName, got[i].Digest, want[i].KindName, want[i].Digest)
		}
		if !bytes.Equal(got[i].Envelope, want[i].Envelope) {
			t.Fatalf("%s: group %s/%016x diverged from the uninterrupted control",
				label, got[i].KindName, got[i].Digest)
		}
	}
}

// startCrashable serves srv on an ephemeral listener with no cleanup
// hooks — the test owns the crash and the reboot.
func startCrashable(t *testing.T, srv *server.Server) (addr string, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), done
}

// armCrash arms site so its nth hit kills srv: that hit (and every
// later one) fails, and the crash switch runs in the background. The
// returned channels report the trigger and the completed abort.
func armCrash(srv *server.Server, site failpoint.Site, n int64) (crashed, aborted chan struct{}) {
	crashed = make(chan struct{})
	aborted = make(chan struct{})
	var hits atomic.Int64
	var once sync.Once
	failpoint.Enable(site, func() error {
		if hits.Add(1) >= n {
			once.Do(func() {
				close(crashed)
				go func() {
					srv.Abort()
					close(aborted)
				}()
			})
			return errInjectedCrash
		}
		return nil
	})
	return crashed, aborted
}

// waitRecovered blocks until srv's boot-time replay completes —
// recovery runs inside Serve's goroutine, so a test reading state
// without pushing first must wait for it.
func waitRecovered(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := srv.Stats(); st.WAL != nil && st.WAL.Recovered {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tearTail truncates the newest segment in dir by n bytes, faking the
// half-written record a power cut mid-append leaves behind.
func tearTail(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear in %s (err=%v)", dir, err)
	}
	seg := segs[len(segs)-1]
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		// The active segment rotated clean; tear the sealed one.
		if len(segs) < 2 {
			t.Fatalf("segment %s empty and nothing sealed behind it", seg)
		}
		seg = segs[len(segs)-2]
		if st, err = os.Stat(seg); err != nil {
			t.Fatal(err)
		}
	}
	if n >= st.Size() {
		n = st.Size() - 1
	}
	if n < 1 {
		n = 1
	}
	if err := os.Truncate(seg, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecoverySingleTopology is the plain-coordinator matrix: for
// each crash leg, a durable coordinator is killed mid-fleet, rebooted
// from its WAL directory, re-pushed by the (at-least-once) fleet, and
// compared byte for byte against the uninterrupted control.
func TestWALRecoverySingleTopology(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 808}
		msgs := siteMessages(t, cfg, overlapSources(6, seed+4))
		ref := controlSnapshots(t, msgs)
		crashHit := 1 + int64(seed%3)

		for _, leg := range walCrashLegs {
			t.Run(leg.name, func(t *testing.T) {
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()

				srv := server.New(server.Config{WAL: testWALConfig(dir)})
				addr, done := startCrashable(t, srv)
				var crashed, aborted chan struct{}
				if leg.site != (failpoint.Site{}) {
					crashed, aborted = armCrash(srv, leg.site, crashHit)
				}

				// The fleet pushes through the crash; errors past the
				// trigger are the nacks and dead dials a real outage
				// hands a retrying site. Snapshot rounds are interleaved
				// so wal/snapshot has hits to crash on (and the other
				// legs exercise append/snapshot interleaving for free).
				cl := chaosClient(addr)
				for _, msg := range msgs {
					_, perr := cl.Push(msg)
					if leg.site == (failpoint.Site{}) {
						// The torn-tail leg needs its history intact:
						// snapshots would prune the segments this leg
						// exists to damage.
						if perr != nil {
							t.Fatalf("uninterrupted leg push failed: %v", perr)
						}
						continue
					}
					srv.SnapshotWAL()
				}

				if leg.site != (failpoint.Site{}) {
					select {
					case <-crashed:
					default:
						t.Fatalf("seed %d: %s never fired — the leg tested nothing", seed, leg.site)
					}
					<-aborted
					failpoint.Reset()
				} else {
					srv.Abort()
					tearTail(t, dir, 3+int64(seed%17))
				}
				if err := <-done; err != nil {
					t.Fatalf("crashed serve loop returned %v", err)
				}

				// Reboot from the crash directory; replay must finish
				// before the listener accepts. The fleet then closes the
				// at-least-once loop by re-pushing everything — acked
				// duplicates are harmless, unacked pushes are required.
				srv2 := server.New(server.Config{WAL: testWALConfig(dir)})
				addr2, done2 := startCrashable(t, srv2)
				cl2 := testClient(addr2)
				for i, msg := range msgs {
					if _, err := cl2.Push(msg); err != nil {
						t.Fatalf("re-push %d after reboot: %v", i, err)
					}
				}
				got, err := srv2.Snapshots()
				if err != nil {
					t.Fatal(err)
				}
				assertSnapshotsEqual(t, leg.name, got, ref)

				st := srv2.Stats()
				if st.WAL == nil || !st.WAL.Recovered {
					t.Fatalf("rebooted coordinator reports no recovery: %+v", st.WAL)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv2.Shutdown(ctx); err != nil {
					t.Fatalf("recovered coordinator shutdown: %v", err)
				}
				if err := <-done2; err != nil {
					t.Fatalf("recovered serve loop: %v", err)
				}
			})
		}

		// The wal/replay leg crashes the *boot*, not the running
		// daemon: recovery must refuse to serve, and the next boot
		// (fault cleared) must converge as usual.
		t.Run("replay", func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			dir := t.TempDir()

			srv := server.New(server.Config{WAL: testWALConfig(dir)})
			addr, done := startCrashable(t, srv)
			cl := testClient(addr)
			for i, msg := range msgs[:4] {
				if _, err := cl.Push(msg); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
			srv.Abort()
			if err := <-done; err != nil {
				t.Fatalf("aborted serve loop returned %v", err)
			}

			failpoint.Enable(failpoint.WALReplay, failpoint.Error(errInjectedCrash))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if serr := server.New(server.Config{WAL: testWALConfig(dir)}).Serve(ln); serr == nil {
				t.Fatal("boot with a failing replay served anyway — partial state went live")
			}
			failpoint.Reset()

			srv2 := server.New(server.Config{WAL: testWALConfig(dir)})
			addr2, done2 := startCrashable(t, srv2)
			cl2 := testClient(addr2)
			for i, msg := range msgs {
				if _, err := cl2.Push(msg); err != nil {
					t.Fatalf("re-push %d after recovered boot: %v", i, err)
				}
			}
			got, err := srv2.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, "replay", got, ref)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv2.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := <-done2; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALRecoveryRelayTopology crashes a durable *parent* under a
// relay shard at every matrix leg. The shard's at-least-once flush
// contract (dirty until acked) plus the parent's replay must land the
// rebooted parent on the uninterrupted control, byte for byte.
func TestWALRecoveryRelayTopology(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 909}
		msgs := siteMessages(t, cfg, overlapSources(5, seed+5))
		ref := controlSnapshots(t, msgs)
		crashHit := 1 + int64(seed%2)

		for _, leg := range walCrashLegs {
			t.Run(leg.name, func(t *testing.T) {
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()

				// Durable parent on a pinned address so the shard's
				// upstream survives the reboot.
				pln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				pAddr := pln.Addr().String()
				parent := server.New(server.Config{WAL: testWALConfig(dir)})
				pdone := make(chan error, 1)
				go func() { pdone <- parent.Serve(pln) }()

				child := server.New(server.Config{Relay: &server.RelayConfig{
					Upstream:      pAddr,
					FlushInterval: time.Hour,
					Attempts:      2,
					BackoffBase:   time.Millisecond,
					IOTimeout:     500 * time.Millisecond,
					JitterSeed:    1,
				}})
				startServer(t, child)

				var crashed, aborted chan struct{}
				if leg.site != (failpoint.Site{}) {
					crashed, aborted = armCrash(parent, leg.site, crashHit)
				}

				// The shard absorbs the fleet and flushes upstream
				// through the crash; a parent snapshot round between
				// flushes gives wal/snapshot its hits.
				for i, msg := range msgs {
					if err := child.AbsorbNamed("", msg); err != nil {
						t.Fatalf("shard absorb %d: %v", i, err)
					}
					child.FlushRelay()
					if leg.site != (failpoint.Site{}) {
						parent.SnapshotWAL()
					}
				}

				if leg.site != (failpoint.Site{}) {
					select {
					case <-crashed:
					default:
						t.Fatalf("seed %d: %s never fired on the parent", seed, leg.site)
					}
					<-aborted
					failpoint.Reset()
				} else {
					parent.Abort()
					tearTail(t, dir, 2+int64(seed%23))
				}
				if err := <-pdone; err != nil {
					t.Fatalf("crashed parent serve loop returned %v", err)
				}

				// Reboot the parent on the same address. The shard's
				// groups stay dirty for whatever was never acked; one
				// more absorb guarantees dirt even on the torn-tail leg
				// (where the torn record *was* acked — the shard's next
				// merged envelope covers it again, which is the same
				// at-least-once closure sites give a plain coordinator).
				ln2, err := net.Listen("tcp", pAddr)
				if err != nil {
					t.Fatalf("rebinding parent address: %v", err)
				}
				parent2 := server.New(server.Config{WAL: testWALConfig(dir)})
				pdone2 := make(chan error, 1)
				go func() { pdone2 <- parent2.Serve(ln2) }()

				if err := child.AbsorbNamed("", msgs[len(msgs)-1]); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					child.FlushRelay()
					pending := int64(0)
					for _, g := range child.Stats().Groups {
						pending += g.PendingRelay
					}
					if pending == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("shard never drained into the rebooted parent (%d pending)", pending)
					}
					time.Sleep(5 * time.Millisecond)
				}

				got, err := parent2.Snapshots()
				if err != nil {
					t.Fatal(err)
				}
				assertSnapshotsEqual(t, leg.name, got, ref)

				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := parent2.Shutdown(ctx); err != nil {
					t.Fatalf("recovered parent shutdown: %v", err)
				}
				if err := <-pdone2; err != nil {
					t.Fatalf("recovered parent serve loop: %v", err)
				}
			})
		}
	}
}

// TestWALShutdownSnapshotBoundsReplay pins the snapshot contract on
// the clean path: a cleanly-stopped durable coordinator leaves a
// snapshot that makes the next boot replay group envelopes, not raw
// history, and the recovered state is byte-identical either way.
func TestWALShutdownSnapshotBoundsReplay(t *testing.T) {
	cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 1010}
	msgs := siteMessages(t, cfg, overlapSources(4, 9))
	ref := controlSnapshots(t, msgs)
	dir := t.TempDir()

	srv := server.New(server.Config{WAL: testWALConfig(dir)})
	addr, done := startCrashable(t, srv)
	cl := testClient(addr)
	for _, msg := range msgs {
		if _, err := cl.Push(msg); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	srv2 := server.New(server.Config{WAL: testWALConfig(dir)})
	addr2, done2 := startCrashable(t, srv2)
	waitRecovered(t, srv2)
	got, err := srv2.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "clean restart", got, ref)
	st := srv2.Stats()
	if st.WAL == nil || st.WAL.ReplayedSnapshotGroups == 0 {
		t.Fatalf("clean restart replayed no snapshot groups: %+v", st.WAL)
	}
	if st.WAL.ReplayedRecords != 0 {
		t.Fatalf("clean restart replayed %d raw records past the shutdown snapshot", st.WAL.ReplayedRecords)
	}
	_ = addr2
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	// A durable no-op: wal.Stats on the reopened dir agree with the
	// server's view (same package-level contract the golden test pins
	// in JSON form).
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Stats().SnapshotSegment == 0 {
		t.Fatal("no live snapshot after two clean shutdowns")
	}
}

// TestWALSegmentHoldsFramesAsPushed: a durable coordinator logs each
// push frame byte for byte as it read it off the connection. That
// includes a MsgPushNamed frame naming the default stream, which a
// re-encode would have logged as a plain MsgPush.
func TestWALSegmentHoldsFramesAsPushed(t *testing.T) {
	msgs := siteMessages(t, core.EstimatorConfig{Capacity: 64, Copies: 2, Seed: 1212}, overlapSources(3, 9))
	dir := t.TempDir()
	srv := server.New(server.Config{WAL: &server.WALConfig{Dir: dir, SnapshotEvery: time.Hour}})
	addr := startServer(t, srv)

	// Two client pushes, framed by wire.AppendPush as every client
	// builds them: one to the default stream, one named.
	cl := testClient(addr)
	if _, err := cl.Push(msgs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushNamed("clicks", msgs[1]); err != nil {
		t.Fatal(err)
	}
	want, err := wire.AppendPush(nil, "", msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want, err = wire.AppendPush(want, "clicks", msgs[1]); err != nil {
		t.Fatal(err)
	}

	// One frame no client builds: a named push with the empty name.
	named, err := wire.EncodePushNamed("", msgs[2])
	if err != nil {
		t.Fatal(err)
	}
	raw := wire.EncodeFrame(wire.MsgPushNamed, named)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("raw push: reply %v, err %v", typ, err)
	}
	if ack, err := wire.DecodeAck(reply); err != nil || ack.Code != wire.AckOK {
		t.Fatalf("raw push: ack %+v, err %v", ack, err)
	}
	want = append(want, raw...)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want one", segs, err)
	}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes that differ from the %d bytes pushed", len(got), len(want))
	}
}
