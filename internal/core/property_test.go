package core

// Property-based tests for the merge algebra. The chaos harness in
// internal/server and internal/client leans on three algebraic facts —
// merge is commutative, associative, and idempotent — to promise that
// duplicated and reordered deliveries never change the referee's
// state. This suite checks those facts directly, bit-for-bit on the
// canonical encoding, across randomly generated configurations
// (capacity, copies, family, raise policy, seed) and randomly sharded
// streams. Every trial's generator seed is logged on failure so a
// counterexample replays exactly.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hashing"
)

// genConfig draws a random estimator configuration from rng.
func genConfig(rng *hashing.Xoshiro256) EstimatorConfig {
	return EstimatorConfig{
		Capacity: 1 + rng.Intn(64),
		Copies:   1 + rng.Intn(5),
		Seed:     rng.Uint64(),
		Family:   FamilyKind(rng.Intn(3)),
		Raise:    RaisePolicy(rng.Intn(2)),
	}
}

// genShards builds k estimators over random overlapping label sets
// drawn from a shared universe, returning each shard's estimator and
// one estimator that processed every shard's items directly — the
// ground-truth union. Values follow the duplicate-insensitive-sum
// contract: a label's weight is a function of the label alone.
func genShards(rng *hashing.Xoshiro256, cfg EstimatorConfig, k int) (shards []*Estimator, union *Estimator) {
	union = NewEstimator(cfg)
	universe := 1 + rng.Uint64n(5000)
	for s := 0; s < k; s++ {
		est := NewEstimator(cfg)
		n := 1 + rng.Intn(2000)
		for j := 0; j < n; j++ {
			label := rng.Uint64n(universe)
			value := label%7 + 1
			est.ProcessWeighted(label, value)
			union.ProcessWeighted(label, value)
		}
		shards = append(shards, est)
	}
	return shards, union
}

// canonical marshals e, failing the test on error.
func canonical(t *testing.T, e *Estimator) []byte {
	t.Helper()
	b, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clone deep-copies an estimator through its canonical encoding, so
// merge expressions can reuse operands without aliasing state.
func clone(t *testing.T, e *Estimator) *Estimator {
	t.Helper()
	var out Estimator
	if err := out.UnmarshalBinary(canonical(t, e)); err != nil {
		t.Fatal(err)
	}
	return &out
}

// mergedInto returns clone(dst) after merging every src into it, in
// order.
func mergedInto(t *testing.T, dst *Estimator, srcs ...*Estimator) *Estimator {
	t.Helper()
	out := clone(t, dst)
	for _, s := range srcs {
		if err := out.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPropertyMergeCommutative: A∪B and B∪A marshal to identical
// bytes for random configurations and shards.
func TestPropertyMergeCommutative(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := uint64(0xC0FFEE) + uint64(trial)
		rng := hashing.NewXoshiro256(seed)
		cfg := genConfig(rng)
		sh, _ := genShards(rng, cfg, 2)
		ab := canonical(t, mergedInto(t, sh[0], sh[1]))
		ba := canonical(t, mergedInto(t, sh[1], sh[0]))
		if !bytes.Equal(ab, ba) {
			t.Fatalf("seed %#x cfg %+v: A∪B != B∪A", seed, cfg)
		}
	}
}

// TestPropertyMergeAssociative: (A∪B)∪C and A∪(B∪C) marshal to
// identical bytes.
func TestPropertyMergeAssociative(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := uint64(0xA550C) + uint64(trial)
		rng := hashing.NewXoshiro256(seed)
		cfg := genConfig(rng)
		sh, _ := genShards(rng, cfg, 3)
		left := canonical(t, mergedInto(t, mergedInto(t, sh[0], sh[1]), sh[2]))
		right := canonical(t, mergedInto(t, sh[0], mergedInto(t, sh[1], sh[2])))
		if !bytes.Equal(left, right) {
			t.Fatalf("seed %#x cfg %+v: (A∪B)∪C != A∪(B∪C)", seed, cfg)
		}
	}
}

// TestPropertyMergeIdempotent: A∪A == A and (A∪B)∪B == A∪B — the
// property that makes at-least-once delivery safe for the networked
// referee.
func TestPropertyMergeIdempotent(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := uint64(0x1DE4) + uint64(trial)
		rng := hashing.NewXoshiro256(seed)
		cfg := genConfig(rng)
		sh, _ := genShards(rng, cfg, 2)
		a := canonical(t, sh[0])
		aa := canonical(t, mergedInto(t, sh[0], sh[0]))
		if !bytes.Equal(a, aa) {
			t.Fatalf("seed %#x cfg %+v: A∪A != A", seed, cfg)
		}
		ab := mergedInto(t, sh[0], sh[1])
		abb := canonical(t, mergedInto(t, ab, sh[1]))
		if !bytes.Equal(canonical(t, ab), abb) {
			t.Fatalf("seed %#x cfg %+v: (A∪B)∪B != A∪B", seed, cfg)
		}
	}
}

// TestPropertyMergeEqualsDirectUnion: merging per-shard sketches is
// bit-identical to one sketch processing the concatenated streams —
// the paper's union semantics, which is what lets sites stream
// independently and exchange only their sketches.
func TestPropertyMergeEqualsDirectUnion(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := uint64(0xD17EC7) + uint64(trial)
		rng := hashing.NewXoshiro256(seed)
		cfg := genConfig(rng)
		sh, union := genShards(rng, cfg, 2+rng.Intn(3))
		merged := canonical(t, mergedInto(t, sh[0], sh[1:]...))
		direct := canonical(t, union)
		if !bytes.Equal(merged, direct) {
			t.Fatalf("seed %#x cfg %+v (%d shards): merged sketches != direct union sketch", seed, cfg, len(sh))
		}
	}
}

func randomLabels(n int, seed uint64) []uint64 {
	r := hashing.NewXoshiro256(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64n(uint64(n))
	}
	return out
}

// TestConcurrentMergeMatchesSerial is the absorb-determinism property
// the networked coordinator (internal/server) relies on: N goroutines
// merging the same part-sketches into one accumulator in arbitrary
// interleaved order — each merge under a lock, as the server's merge
// groups do — must leave state bit-identical to merging them serially
// in site order.
func TestConcurrentMergeMatchesSerial(t *testing.T) {
	cfg := Config{Capacity: 256, Seed: 21}
	labels := randomLabels(80_000, 17)
	const parts = 24
	sketches := make([]*Sampler, parts)
	for i := range sketches {
		sketches[i] = NewSampler(cfg)
		lo, hi := i*len(labels)/parts, (i+1)*len(labels)/parts
		for _, l := range labels[lo:hi] {
			sketches[i].Process(l)
		}
	}

	serial := NewSampler(cfg)
	for _, p := range sketches {
		if err := serial.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := serial.MarshalBinary()

	rng := hashing.NewXoshiro256(23)
	for trial := 0; trial < 5; trial++ {
		order := make([]int, parts)
		for i := range order {
			order[i] = i
		}
		for i := parts - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		acc := NewSampler(cfg)
		var mu sync.Mutex
		var wg sync.WaitGroup
		work := make(chan *Sampler)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range work {
					mu.Lock()
					err := acc.Merge(p)
					mu.Unlock()
					if err != nil {
						t.Error(err)
					}
				}
			}()
		}
		for _, idx := range order {
			work <- sketches[idx]
		}
		close(work)
		wg.Wait()
		got, _ := acc.MarshalBinary()
		if string(got) != string(want) {
			t.Fatalf("trial %d: concurrent merge state differs from serial", trial)
		}
	}
}

// TestConcurrentEstimatorMergeMatchesSerial is the same property for
// the full median-of-copies estimator — the exact object the server
// merges per absorbed site message.
func TestConcurrentEstimatorMergeMatchesSerial(t *testing.T) {
	cfg := EstimatorConfig{Capacity: 128, Copies: 5, Seed: 31}
	labels := randomLabels(60_000, 19)
	const parts = 12
	ests := make([]*Estimator, parts)
	for i := range ests {
		ests[i] = NewEstimator(cfg)
		lo, hi := i*len(labels)/parts, (i+1)*len(labels)/parts
		for _, l := range labels[lo:hi] {
			ests[i].Process(l)
		}
	}

	serial := NewEstimator(cfg)
	for _, p := range ests {
		if err := serial.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := serial.MarshalBinary()

	acc := NewEstimator(cfg)
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan *Estimator)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				mu.Lock()
				err := acc.Merge(p)
				mu.Unlock()
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	// Reverse order, so serial order and absorb order certainly differ.
	for i := parts - 1; i >= 0; i-- {
		work <- ests[i]
	}
	close(work)
	wg.Wait()
	got, _ := acc.MarshalBinary()
	if string(got) != string(want) {
		t.Fatal("concurrent estimator merge state differs from serial")
	}
}
