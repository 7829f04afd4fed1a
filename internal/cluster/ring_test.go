package cluster

import (
	"testing"

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

// TestRingGrowthMovesGroupsOnlyToNewShard: growing a ring from n to
// n+1 shards (an operator raising unionstreamd -shards) must move
// groups only onto the new shard n; every other group keeps its
// owner, since one shard's virtual nodes do not depend on how many
// other shards exist.
func TestRingGrowthMovesGroupsOnlyToNewShard(t *testing.T) {
	keys := testKeys(20_000)
	for n := 1; n <= 5; n++ {
		prev, next := NewRing(n, 64, 99), NewRing(n+1, 64, 99)
		moved := 0
		for _, k := range keys {
			was, now := prev.Owner(k), next.Owner(k)
			if was == now {
				continue
			}
			if now != n {
				t.Fatalf("%d -> %d shards: group %s moved %d -> %d, not onto the new shard %d", n, n+1, k, was, now, n)
			}
			moved++
		}
		if moved == 0 {
			t.Fatalf("%d -> %d shards: the new shard took no groups — test vacuous", n, n+1)
		}
		t.Logf("%d -> %d shards moved %d of %d groups", n, n+1, moved, len(keys))
	}
}

// TestRingPanics: invalid constructions must fail loudly.
func TestRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero shards: no panic")
		}
	}()
	NewRing(0, 8, 1)
}
