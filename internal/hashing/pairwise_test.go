package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPairwiseDeterministic(t *testing.T) {
	h1 := NewPairwise(99)
	h2 := NewPairwise(99)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed, different hash at x=%d", x)
		}
	}
}

func TestPairwiseSeedsDiffer(t *testing.T) {
	h1 := NewPairwise(1)
	h2 := NewPairwise(2)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) == h2.Hash(x) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds agreed on %d/1000 keys", same)
	}
}

func TestPairwiseRange(t *testing.T) {
	f := func(seed, x uint64) bool {
		return NewPairwise(seed).Hash(x) < MersennePrime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPairwiseUniformBuckets checks that hashes of sequential keys land
// uniformly across 16 buckets (a chi-squared style sanity check: the
// family's marginal distribution is uniform).
func TestPairwiseUniformBuckets(t *testing.T) {
	const buckets = 16
	const n = 1 << 16
	for _, seed := range []uint64{1, 7, 12345} {
		h := NewPairwise(seed)
		counts := make([]int, buckets)
		bucketWidth := MersennePrime / buckets
		for x := uint64(0); x < n; x++ {
			b := h.Hash(x) / bucketWidth
			if b >= buckets {
				b = buckets - 1
			}
			counts[b]++
		}
		want := float64(n) / buckets
		for i, c := range counts {
			if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
				t.Errorf("seed %d bucket %d: count %d too far from %.0f", seed, i, c, want)
			}
		}
	}
}

// TestPairwiseCollisionRate checks the 2-universal collision bound:
// for random distinct pairs Pr[h(x)=h(y)] <= 1/p, so over 10^5 pairs we
// should see essentially zero collisions.
func TestPairwiseCollisionRate(t *testing.T) {
	h := NewPairwise(5)
	r := NewXoshiro256(6)
	collisions := 0
	for i := 0; i < 100000; i++ {
		x, y := r.Uint64(), r.Uint64()
		if x != y && h.Hash(x) == h.Hash(y) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("observed %d collisions in 1e5 pairs over a 2^61 range", collisions)
	}
}

// TestPairwiseIndependenceOfBits estimates Pr[bit_i(h(x))=1 AND
// bit_i(h(y))=1] ≈ 1/4 for a fixed pair of keys over random draws of
// the function — the defining property of pairwise independence.
func TestPairwiseIndependenceOfBits(t *testing.T) {
	const trials = 20000
	const bit = 60 // top bit of the 61-bit output
	both := 0
	for s := uint64(0); s < trials; s++ {
		h := NewPairwise(Mix64(s))
		a := (h.Hash(17) >> bit) & 1
		b := (h.Hash(42) >> bit) & 1
		if a == 1 && b == 1 {
			both++
		}
	}
	got := float64(both) / trials
	// The top bit of a uniform value in [0, 2^61-1) is 1 with
	// probability just under 1/2, so the joint should be ~1/4.
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("joint top-bit probability = %.4f, want ~0.25", got)
	}
}

func TestKWiseDeterministic(t *testing.T) {
	h1 := NewKWise(4, 99)
	h2 := NewKWise(4, 99)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed, different hash at x=%d", x)
		}
	}
}

func TestKWiseRange(t *testing.T) {
	f := func(seed, x uint64) bool {
		return NewKWise(4, seed).Hash(x) < MersennePrime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKWiseK(t *testing.T) {
	if got := len(NewKWise(4, 1).coef); got != 4 {
		t.Errorf("NewKWise(4, ...) has %d coefficients, want 4", got)
	}
}

func TestKWisePanicsOnSmallK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewKWise(1, ...) did not panic")
		}
	}()
	NewKWise(1, 0)
}

func TestKWiseDegree2MatchesPairwiseStructure(t *testing.T) {
	// A 2-wise polynomial hash is an (a·x+b) function; verify linearity
	// structure: h(x+1) - h(x) is constant mod p.
	h := NewKWise(2, 31)
	d0 := (h.Hash(1) + MersennePrime - h.Hash(0)) % MersennePrime
	for x := uint64(1); x < 100; x++ {
		d := (h.Hash(x+1) + MersennePrime - h.Hash(x)) % MersennePrime
		if d != d0 {
			t.Fatalf("degree-2 polynomial not affine at x=%d", x)
		}
	}
}

func TestTabulationDeterministic(t *testing.T) {
	h1 := NewTabulation(99)
	h2 := NewTabulation(99)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed, different hash at x=%d", x)
		}
	}
}

func TestTabulationRange(t *testing.T) {
	h := NewTabulation(3)
	r := NewXoshiro256(4)
	for i := 0; i < 10000; i++ {
		if v := h.Hash(r.Uint64()); v >= MersennePrime {
			t.Fatalf("hash out of range: %d", v)
		}
	}
}

func TestTabulationUniformBuckets(t *testing.T) {
	const buckets = 16
	const n = 1 << 16
	h := NewTabulation(8)
	counts := make([]int, buckets)
	bucketWidth := MersennePrime / buckets
	for x := uint64(0); x < n; x++ {
		b := h.Hash(x) / bucketWidth
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %.0f", i, c, want)
		}
	}
}

// All families satisfy the Family interface.
var (
	_ Family = Pairwise{}
	_ Family = KWise{}
	_ Family = (*Tabulation)(nil)
)
