package distnet

// The sharded leg of the WAL crash-recovery matrix: a 3-shard cluster
// relays into a durable parent; the parent is killed at every wal/*
// failpoint (plus a torn tail), rebooted on the same address, and the
// shards' at-least-once flush contract plus log replay must land it
// bit-identical to a single coordinator that absorbed every site push
// directly. Run with -chaos.seed=N to move the crash point; ci.sh
// sweeps 1..3.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/failpoint"
	"repro/internal/server"
)

var errParentCrash = errors.New("injected parent crash")

// tearNewestSegment truncates the newest non-empty WAL segment by n
// bytes — the on-disk shape of a crash mid-append.
func tearNewestSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear in %s (err=%v)", dir, err)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		st, serr := os.Stat(segs[i])
		if serr != nil {
			t.Fatal(serr)
		}
		if st.Size() == 0 {
			continue
		}
		cut := n
		if cut >= st.Size() {
			cut = st.Size() - 1
		}
		if cut < 1 {
			cut = 1
		}
		if terr := os.Truncate(segs[i], st.Size()-cut); terr != nil {
			t.Fatal(terr)
		}
		return
	}
	t.Fatalf("every segment in %s is empty", dir)
}

// TestWALClusterParentCrashRecovery drives the full matrix against
// the 3-shard topology.
func TestWALClusterParentCrashRecovery(t *testing.T) {
	legs := []struct {
		name string
		site failpoint.Site
	}{
		{"append", failpoint.WALAppend},
		{"fsync", failpoint.WALFsync},
		{"rotate", failpoint.WALRotate},
		{"snapshot", failpoint.WALSnapshot},
		{"dirsync", failpoint.WALDirSync},
		{"replay", failpoint.WALReplay},
		{"torn-tail", failpoint.Site{}},
	}
	for _, seed := range chaosSeeds() {
		const groups = 40
		crashHit := 1 + int64(seed%5)

		for _, leg := range legs {
			t.Run(leg.name, func(t *testing.T) {
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()

				c, err := StartCluster(ClusterOptions{
					Shards:      3,
					RingSeed:    seed,
					Attempts:    2,
					BackoffBase: time.Millisecond,
					IOTimeout:   time.Second,
					ParentWAL: &server.WALConfig{
						Dir:           dir,
						SegmentBytes:  256,
						SnapshotEvery: time.Hour,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				ctrl, ctrlAddr := controlServer(t)
				ctrlClient := client.New(clientConfig(ctrlAddr))
				sc, err := c.Client()
				if err != nil {
					t.Fatal(err)
				}

				// Wave 1 lands before the crash and is (partially)
				// flushed into the durable parent.
				wave1 := clusterRecords(t, groups, 0)
				pushSharded(t, sc, wave1)
				if _, err := ctrlClient.PushBatchNamed(wave1); err != nil {
					t.Fatal(err)
				}
				if _, err := c.FlushAll(); err != nil {
					t.Fatalf("pre-crash flush: %v", err)
				}
				if _, err := c.Parent.SnapshotWAL(); err != nil {
					t.Fatalf("pre-crash parent snapshot: %v", err)
				}

				// Arm the crash (except for the boot-time legs) and
				// drive wave 2 through it: more shard pushes, flushes
				// that die mid-hop, snapshot rounds that die mid-cut.
				var crashed chan struct{}
				if leg.site != (failpoint.Site{}) && leg.site != failpoint.WALReplay {
					crashed = make(chan struct{})
					var hits atomic.Int64
					var once sync.Once
					srv := c.Parent
					failpoint.Enable(leg.site, func() error {
						if hits.Add(1) >= crashHit {
							once.Do(func() {
								close(crashed)
								go srv.Abort()
							})
							return errParentCrash
						}
						return nil
					})
				}
				wave2 := clusterRecords(t, groups, 1)
				pushSharded(t, sc, wave2)
				if _, err := ctrlClient.PushBatchNamed(wave2); err != nil {
					t.Fatal(err)
				}
				// Several flush+snapshot rounds so every site reaches its
				// crash hit regardless of seed. The torn-tail leg skips
				// the snapshots: pruning would erase the very segments
				// that leg exists to damage.
				for i := 0; i < 6; i++ {
					c.FlushAll()
					if leg.site != (failpoint.Site{}) {
						c.Parent.SnapshotWAL()
					}
				}

				switch {
				case crashed != nil:
					select {
					case <-crashed:
					default:
						t.Fatalf("seed %d: %s never fired on the parent", seed, leg.site)
					}
					if err := c.CrashParent(); err != nil {
						t.Fatalf("crashed parent serve loop: %v", err)
					}
					failpoint.Reset()
				default:
					if err := c.CrashParent(); err != nil {
						t.Fatalf("crashed parent serve loop: %v", err)
					}
					if leg.site == (failpoint.Site{}) {
						tearNewestSegment(t, dir, 2+int64(seed%29))
					}
				}

				if leg.site == failpoint.WALReplay {
					// The boot itself must refuse while replay fails,
					// then recover once the fault clears.
					failpoint.Enable(failpoint.WALReplay, failpoint.Error(errParentCrash))
					if err := c.RestartParent(); err == nil {
						t.Fatal("parent served with a failing replay — partial state went live")
					}
					failpoint.Reset()
				}
				if err := c.RestartParent(); err != nil {
					t.Fatalf("parent restart: %v", err)
				}

				// Close the at-least-once loop: re-dirty every group so
				// each shard re-relays its full merged state (covering
				// anything acked-then-torn), then flush until drained.
				wave3 := clusterRecords(t, groups, 2)
				pushSharded(t, sc, wave3)
				if _, err := ctrlClient.PushBatchNamed(wave3); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(15 * time.Second)
				for c.PendingRelay() > 0 {
					if time.Now().After(deadline) {
						t.Fatalf("shards never drained into the rebooted parent (%d pending)", c.PendingRelay())
					}
					c.FlushAll()
					time.Sleep(5 * time.Millisecond)
				}

				requireIdentical(t, c.Parent, ctrl, "recovered parent vs control")
				if st := c.Parent.Stats(); st.WAL == nil || !st.WAL.Recovered {
					t.Fatalf("rebooted parent reports no recovery: %+v", st.WAL)
				}
			})
		}
	}
}
