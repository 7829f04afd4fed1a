package server_test

// Replay idempotence property, checked for every registered sketch
// kind: because group joins are commutative, associative, and
// idempotent, a WAL that delivers records at-least-once — duplicated
// absorbs, a full-log replay, a replay of the replayed state's
// snapshot, or a snapshot plus a live tail — must always land the
// coordinator on the byte-identical group state an uninterrupted run
// produces. This is the algebraic fact the whole durability design
// leans on; if a new kind breaks it, this test names the kind.

import (
	"testing"

	"repro/internal/server"
	"repro/internal/sketch"
)

// kindEnvelopes builds three same-group envelopes of one kind with
// overlapping label ranges, so merges genuinely deduplicate.
func kindEnvelopes(t *testing.T, info sketch.KindInfo) [][]byte {
	t.Helper()
	envs := make([][]byte, 3)
	for i := range envs {
		sk := info.New(0.2, 4242)
		base := uint64(i) * 40
		for x := base; x < base+60; x++ {
			sk.Process(x*2654435761 + 1)
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatalf("%s: envelope: %v", info.Name, err)
		}
		envs[i] = env
	}
	return envs
}

// rebootRecovered boots a fresh coordinator on dir and forces its
// recovery (SnapshotWAL runs replay first), returning it live.
func rebootRecovered(t *testing.T, dir string) *server.Server {
	t.Helper()
	srv := server.New(server.Config{WAL: testWALConfig(dir)})
	if _, err := srv.SnapshotWAL(); err != nil {
		t.Fatalf("recovery on reboot: %v", err)
	}
	return srv
}

func TestWALReplayIdempotencePerKind(t *testing.T) {
	kinds := sketch.Kinds()
	if len(kinds) == 0 {
		t.Fatal("no sketch kinds registered")
	}
	for _, info := range kinds {
		t.Run(info.Name, func(t *testing.T) {
			envs := kindEnvelopes(t, info)
			ref := controlSnapshots(t, envs)

			// At-least-once delivery at the merge layer: duplicated
			// absorbs in any interleaving change nothing.
			dup := controlSnapshots(t, [][]byte{
				envs[0], envs[1], envs[0], envs[2], envs[1], envs[2], envs[0],
			})
			assertSnapshotsEqual(t, info.Name+"/duplicate-delivery", dup, ref)

			// Full-log replay, then a second boot that replays the
			// snapshot the first reboot cut from its replayed state.
			dir := t.TempDir()
			srv := server.New(server.Config{WAL: testWALConfig(dir)})
			for _, e := range envs {
				if err := srv.AbsorbNamed("", e); err != nil {
					t.Fatal(err)
				}
			}
			srv.Abort()
			boot1 := rebootRecovered(t, dir)
			snaps, err := boot1.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, info.Name+"/full-log-replay", snaps, ref)
			if st := boot1.Stats().WAL; st.ReplayedRecords < 3 {
				t.Fatalf("full-log boot replayed %d records, want >= 3", st.ReplayedRecords)
			}
			boot1.Abort()
			boot2 := rebootRecovered(t, dir)
			if snaps, err = boot2.Snapshots(); err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, info.Name+"/snapshot-of-replay", snaps, ref)
			if st := boot2.Stats().WAL; st.ReplayedSnapshotGroups < 1 {
				t.Fatal("second boot never replayed the snapshot")
			}
			boot2.Abort()

			// Snapshot + live tail: records appended after the cut are
			// joined onto the restored snapshot state.
			dir2 := t.TempDir()
			srv2 := server.New(server.Config{WAL: testWALConfig(dir2)})
			for _, e := range envs[:2] {
				if err := srv2.AbsorbNamed("", e); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := srv2.SnapshotWAL(); err != nil {
				t.Fatal(err)
			}
			if err := srv2.AbsorbNamed("", envs[2]); err != nil {
				t.Fatal(err)
			}
			srv2.Abort()
			boot3 := rebootRecovered(t, dir2)
			if snaps, err = boot3.Snapshots(); err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, info.Name+"/snapshot-plus-tail", snaps, ref)
			if st := boot3.Stats().WAL; st.ReplayedSnapshotGroups < 1 || st.ReplayedRecords < 1 {
				t.Fatalf("snapshot+tail boot replayed %d groups, %d records — both must be nonzero",
					st.ReplayedSnapshotGroups, st.ReplayedRecords)
			}
			boot3.Abort()
		})
	}
}
