// Package cluster implements the sharded, hierarchical aggregation
// tier on top of the single-coordinator referee: a deterministic
// consistent-hash ring that assigns merge groups — identified by the
// GroupKey the coordinator keys its group table on — to N
// unionstreamd shards.
//
// The whole tier leans on one fact, pinned bit-identical for every
// registered kind by the sketchtest conformance suite: sketch merges
// are commutative, associative, and idempotent. Any *tree* of
// coordinators therefore computes exactly the same merged state as a
// single coordinator absorbing every site message itself — shards
// merge their slice of the groups, relay their merged envelopes
// upstream as if they were ordinary sites, and the parent's groups
// converge to the single-coordinator fixpoint regardless of flush
// timing, duplicate deliveries, or the order shards push in. The
// distnet cluster suite asserts that equivalence byte for byte, at
// 10^5-group scale and under seeded fault schedules.
//
// The ring itself is a pure, deterministic function of (shard count,
// virtual-node count, seed): every participant — pushing clients and
// shards reporting ownership in /statsz — can derive the identical
// assignment locally with no coordination service, which is what
// keeps the data path zero-round-trip.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// DefaultVirtualNodes is the per-shard virtual-node count when a
// Config leaves it zero. 64 points per shard keeps the expected load
// imbalance across a handful of shards within a few percent while the
// ring stays small enough for every client and shard to build.
const DefaultVirtualNodes = 64

// GroupKey identifies one merge group: the logical stream the group
// belongs to ("" for the default stream), a sketch kind, and its
// canonical config digest. The coordinator keys its group table by
// it, and the ring places groups by it, so two envelopes land in the
// same group — and therefore on the same shard — exactly when they
// name the same stream and their sketches are merge-compatible.
type GroupKey struct {
	Stream string
	Kind   sketch.Kind
	Digest uint64
}

// String renders the key the way /statsz renders groups.
func (k GroupKey) String() string {
	if k.Stream == "" {
		return fmt.Sprintf("%s/%016x", k.Kind, k.Digest)
	}
	return fmt.Sprintf("%s:%s/%016x", k.Stream, k.Kind, k.Digest)
}

// point is one virtual node: a position on the 64-bit ring owned by a
// shard.
type point struct {
	pos   uint64
	shard int
}

// Ring is a deterministic consistent-hash ring over a fixed set of
// shard indices. Construct with NewRing; the zero value is not valid.
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	shards int
	seed   uint64
	points []point // sorted by pos
}

// NewRing builds a ring of `shards` shards (indices 0..shards-1),
// each contributing `vnodes` virtual nodes (<= 0 selects
// DefaultVirtualNodes), with every virtual-node position derived
// deterministically from seed. Equal (shards, vnodes, seed) always
// yields the identical assignment, on every machine — clients, shard
// daemons, and tests share the ring by sharing those three numbers.
func NewRing(shards, vnodes int, seed uint64) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("cluster: ring needs at least 1 shard, got %d", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{shards: shards, seed: seed}
	for s := 0; s < shards; s++ {
		// Each shard's virtual nodes come from a SplitMix64 stream
		// keyed by (seed, shard), so one shard's points do not depend
		// on how many other shards exist — the property that makes
		// growing the ring from n to n+1 shards move groups only onto
		// shard n. The key is mixed: keyed linearly, as seed ^ f(s), a
		// small seed starts one shard's stream a few steps along
		// another's, and their points coincide.
		rng := hashing.NewSplitMix64(hashing.Mix64(seed ^ uint64(s)))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{pos: rng.Next(), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		// Position collisions (astronomically rare at 64 bits) break
		// ties by shard index so the ring stays deterministic.
		return a.shard < b.shard
	})
	return r
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// Seed returns the ring seed.
func (r *Ring) Seed() uint64 { return r.seed }

// streamHash folds a stream name into the key-hash pre-image. The
// default stream hashes to zero BY CONTRACT: a default-stream key's
// ring position is then bit-identical to the position the same
// (kind, digest) key had before streams existed, so upgrading a
// deployment to named streams moves no existing group.
func streamHash(s string) uint64 {
	if s == "" {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// keyHash maps a group key onto the ring's 64-bit space. The ring
// seed participates so distinct deployments shard the same group
// population differently; SplitMix64's finalizer scrambles the raw
// digest (which is itself an FNV hash, but of structured low-entropy
// fields) into a uniform position.
func (r *Ring) keyHash(key GroupKey) uint64 {
	return hashing.NewSplitMix64(r.seed ^ uint64(key.Kind)<<56 ^ key.Digest ^ streamHash(key.Stream)).Next()
}

// Owner returns the shard owning the group: the shard of the first
// virtual node at or clockwise of the key's ring position.
func (r *Ring) Owner(key GroupKey) int {
	h := r.keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's first
	}
	return r.points[i].shard
}
