package cluster

import (
	"errors"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/sketch"
)

// testKeys builds n distinct group keys spread over a few kinds, the
// way a real deployment's groups spread over backends and configs.
func testKeys(n int) []GroupKey {
	kinds := []sketch.Kind{sketch.KindGT, sketch.KindKMV, sketch.KindLogLog}
	keys := make([]GroupKey, n)
	for i := range keys {
		keys[i] = GroupKey{
			Kind:   kinds[i%len(kinds)],
			Digest: sketch.ConfigDigest(kinds[i%len(kinds)], uint64(i)),
		}
	}
	return keys
}

// TestRingDeterministic: equal (shards, vnodes, seed) must yield the
// identical assignment — the property that lets clients, shards, and
// tests share a ring by sharing three numbers.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 64, 42)
	b := NewRing(5, 64, 42)
	for _, k := range testKeys(10_000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("group %s: owners differ between identically-built rings", k)
		}
	}
}

// TestRingSeedMatters: a different ring seed must shard the same
// group population differently (with overwhelming probability).
func TestRingSeedMatters(t *testing.T) {
	a := NewRing(4, 64, 1)
	b := NewRing(4, 64, 2)
	same := 0
	keys := testKeys(4096)
	for _, k := range keys {
		if a.Owner(k) == b.Owner(k) {
			same++
		}
	}
	// Independent uniform assignments agree ~1/4 of the time; total
	// agreement would mean the seed is ignored.
	if same == len(keys) {
		t.Fatalf("rings with different seeds assigned all %d groups identically", len(keys))
	}
}

// TestRingCoversAllShards: every shard must own a reasonable share of
// a large group population — no dead shards, no runaway imbalance —
// for every ring seed 1–64 and 2–8 shards. Small, structured seeds are
// the ones deployments and tests pick, and a shard stream keyed
// linearly by (seed, shard) aliases another shard's for small seeds,
// leaving one shard almost empty.
func TestRingCoversAllShards(t *testing.T) {
	keys := testKeys(30_000)
	for shards := 2; shards <= 8; shards++ {
		counts := make([]int, shards)
		for seed := uint64(1); seed <= 64; seed++ {
			r := NewRing(shards, 0, seed)
			clear(counts)
			for _, k := range keys {
				o := r.Owner(k)
				if o < 0 || o >= shards {
					t.Fatalf("group %s: owner %d outside [0,%d)", k, o, shards)
				}
				counts[o]++
			}
			// With 64 vnodes per shard the spread stays well within a
			// factor of two of perfect balance.
			fair := len(keys) / shards
			for s, c := range counts {
				if c < fair/2 || c > fair*2 {
					t.Errorf("seed %d, %d shards: shard %d owns %d of %d groups — imbalance beyond 2x",
						seed, shards, s, c, len(keys))
				}
			}
		}
	}
}

// TestRingWithoutMovesOnlyDepartingGroups: removing a shard must
// reassign exactly the groups it owned; every other group keeps its
// owner. This is the consistent-hashing contract migration relies on
// to re-push only the dead shard's groups.
func TestRingWithoutMovesOnlyDepartingGroups(t *testing.T) {
	const dead = 1
	prev := NewRing(4, 64, 99)
	next := prev.Without(dead)
	moved, stayed := 0, 0
	for _, k := range testKeys(20_000) {
		was, now := prev.Owner(k), next.Owner(k)
		if was == dead {
			if now == dead {
				t.Fatalf("group %s still owned by removed shard %d", k, dead)
			}
			moved++
			continue
		}
		if was != now {
			t.Fatalf("group %s moved %d -> %d though shard %d was the one removed", k, was, now, dead)
		}
		stayed++
	}
	if moved == 0 {
		t.Fatal("removed shard owned no groups — test vacuous")
	}
	if got := next.Members(); len(got) != 3 {
		t.Fatalf("members after Without: %v", got)
	}
	t.Logf("membership change moved %d groups, kept %d", moved, stayed)
}

// TestRingWithoutIdempotent: removing an absent shard returns the
// ring unchanged.
func TestRingWithoutIdempotent(t *testing.T) {
	r := NewRing(3, 8, 1).Without(2)
	if r.Without(2) != r {
		t.Error("Without of an absent member built a new ring")
	}
}

// TestRingPanics: invalid constructions must fail loudly.
func TestRingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero shards":    func() { NewRing(0, 8, 1) },
		"out of range":   func() { NewRing(2, 8, 1).Without(5) },
		"empty the ring": func() { NewRing(1, 8, 1).Without(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMigrate: only groups owned by the removed shard are re-pushed,
// each to its new owner, and a failing push leaves the rest moving.
func TestMigrate(t *testing.T) {
	prev := NewRing(3, 64, 11)
	next := prev.Without(0)

	var groups []Group
	for i, k := range testKeys(300) {
		groups = append(groups, Group{Key: k, Envelope: []byte{byte(i)}})
	}

	pushed := map[int]int{}
	moved, err := Migrate(groups, prev, next, func(shard int, env []byte) error {
		if len(env) == 0 {
			t.Fatal("migration pushed an empty envelope")
		}
		pushed[shard]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(Plan(groups, prev, next))
	if moved != want || want == 0 {
		t.Fatalf("moved %d groups, plan says %d", moved, want)
	}
	if pushed[0] != 0 {
		t.Errorf("%d groups pushed to the removed shard", pushed[0])
	}

	// A push error must not abort the remaining migrations, and must
	// surface in the joined error.
	boom := errors.New("boom")
	calls := 0
	moved, err = Migrate(groups, prev, next, func(int, []byte) error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if moved != want-1 || calls != want {
		t.Fatalf("moved %d of %d with %d attempts after one failure", moved, want, calls)
	}
}

// TestMigrateFailpoint: the cluster/migrate site must gate each
// re-push, and an injected fault must leave the group unmoved but the
// run continuing — the at-least-once retry contract.
func TestMigrateFailpoint(t *testing.T) {
	prev := NewRing(2, 64, 13)
	next := prev.Without(1)
	var groups []Group
	for _, k := range testKeys(100) {
		groups = append(groups, Group{Key: k, Envelope: []byte{1}})
	}
	want := len(Plan(groups, prev, next))
	if want < 2 {
		t.Fatalf("plan too small (%d) for the test to bite", want)
	}

	injected := errors.New("injected")
	failpoint.Enable(failpoint.ClusterMigrate, failpoint.Times(1, injected))
	defer failpoint.Disable(failpoint.ClusterMigrate)

	moved, err := Migrate(groups, prev, next, func(int, []byte) error { return nil })
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if moved != want-1 {
		t.Fatalf("moved %d, want %d (one injected failure)", moved, want-1)
	}
	if failpoint.Hits(failpoint.ClusterMigrate) != int64(want) {
		t.Fatalf("failpoint hit %d times, want %d", failpoint.Hits(failpoint.ClusterMigrate), want)
	}

	// Retrying just the straggler converges: idempotent merges make
	// the duplicate-free bookkeeping unnecessary — re-running the
	// whole migration is also correct.
	failpoint.Disable(failpoint.ClusterMigrate)
	moved, err = Migrate(groups, prev, next, func(int, []byte) error { return nil })
	if err != nil || moved != want {
		t.Fatalf("re-run moved %d, err %v", moved, err)
	}
}
