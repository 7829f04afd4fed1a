package kmv

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func TestExactBelowK(t *testing.T) {
	s := New(100, 1)
	for x := uint64(0); x < 50; x++ {
		s.Process(x)
		s.Process(x)
	}
	if got := s.Estimate(); got != 50 {
		t.Errorf("estimate below k = %v, want exactly 50", got)
	}
}

func TestAccuracy(t *testing.T) {
	const truth = 100000
	s := New(1024, 42)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	got := s.Estimate()
	if rel := math.Abs(got-truth) / truth; rel > 0.10 {
		t.Errorf("estimate %.0f vs %d: rel err %.3f", got, truth, rel)
	}
}

func TestSortedInvariant(t *testing.T) {
	s := New(64, 7)
	r := hashing.NewXoshiro256(2)
	for i := 0; i < 10000; i++ {
		s.Process(r.Uint64())
		// The retained values must stay strictly ascending at every
		// step: Estimate reads the k-th value off the end, and
		// MarshalBinary delta-encodes them in place.
		for j := 1; j < len(s.vals); j++ {
			if s.vals[j] <= s.vals[j-1] {
				t.Fatalf("step %d: vals[%d] = %d not above vals[%d] = %d", i, j, s.vals[j], j-1, s.vals[j-1])
			}
		}
	}
	if len(s.vals) != 64 {
		t.Errorf("retained %d values, want 64", len(s.vals))
	}
}

func TestKeepsSmallestK(t *testing.T) {
	// Compare against a brute-force bottom-k of the hash values.
	s := New(32, 5)
	h := hashing.NewPairwise(5)
	var all []uint64
	seen := map[uint64]bool{}
	for x := uint64(0); x < 5000; x++ {
		s.Process(x)
		v := h.Hash(x)
		if !seen[v] {
			seen[v] = true
			all = append(all, v)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	want := map[uint64]bool{}
	for _, v := range all[:32] {
		want[v] = true
	}
	if len(s.vals) != 32 {
		t.Fatalf("retained %d values, want 32", len(s.vals))
	}
	for _, v := range s.vals {
		if !want[v] {
			t.Fatalf("sketch retained %d which is not in the true bottom-32", v)
		}
	}
}

// TestMergeMatchesBruteForce checks the in-place merge against the
// bottom-k of the union of both retained sets, merging into a decoded
// sketch, whose slice holds exactly its count and must grow.
func TestMergeMatchesBruteForce(t *testing.T) {
	r := hashing.NewXoshiro256(4)
	for trial := 0; trial < 200; trial++ {
		k := 2 + r.Intn(40)
		a, b := New(k, 3), New(k, 3)
		for i, n := 0, r.Intn(3*k); i < n; i++ {
			a.Process(r.Uint64n(200))
		}
		for i, n := 0, r.Intn(3*k); i < n; i++ {
			b.Process(r.Uint64n(200))
		}
		want := append(slices.Clone(a.vals), b.vals...)
		slices.Sort(want)
		want = slices.Compact(want)
		if len(want) > k {
			want = want[:k]
		}
		enc, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var d Sketch
		if err := d.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if err := d.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.vals, want) {
			t.Fatalf("trial %d (k=%d): merged %v, want %v", trial, k, d.vals, want)
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, both := New(256, 3), New(256, 3), New(256, 3)
	for x := uint64(0); x < 20000; x++ {
		a.Process(x)
		both.Process(x)
	}
	for x := uint64(15000); x < 40000; x++ {
		b.Process(x)
		both.Process(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != both.Estimate() {
		t.Errorf("merged %.0f != union %.0f", a.Estimate(), both.Estimate())
	}
}

func TestMergeCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := hashing.NewXoshiro256(seed)
		k := 2 + r.Intn(64)
		hseed := r.Uint64()
		a, b := New(k, hseed), New(k, hseed)
		for i := 0; i < 2000; i++ {
			a.Process(r.Uint64n(5000))
			b.Process(r.Uint64n(5000))
		}
		ab := New(k, hseed)
		_ = ab.Merge(a)
		_ = ab.Merge(b)
		ba := New(k, hseed)
		_ = ba.Merge(b)
		_ = ba.Merge(a)
		return ab.Estimate() == ba.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMergeMismatch(t *testing.T) {
	a := New(16, 1)
	if err := a.Merge(New(8, 1)); err == nil {
		t.Error("k mismatch accepted")
	}
	if err := a.Merge(New(16, 2)); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestJaccard(t *testing.T) {
	// Two streams sharing half their labels: J = |∩|/|∪| = 1/3.
	a, b := New(512, 9), New(512, 9)
	for x := uint64(0); x < 20000; x++ {
		a.Process(x)
	}
	for x := uint64(10000); x < 30000; x++ {
		b.Process(x)
	}
	j, err := a.Jaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-1.0/3) > 0.08 {
		t.Errorf("Jaccard = %.3f, want ~0.333", j)
	}
	// Disjoint streams.
	c := New(512, 9)
	for x := uint64(50000); x < 60000; x++ {
		c.Process(x)
	}
	j, err = a.Jaccard(c)
	if err != nil {
		t.Fatal(err)
	}
	if j > 0.02 {
		t.Errorf("disjoint Jaccard = %.3f, want ~0", j)
	}
	// Identical streams.
	d := New(512, 9)
	for x := uint64(0); x < 20000; x++ {
		d.Process(x)
	}
	j, err = a.Jaccard(d)
	if err != nil {
		t.Fatal(err)
	}
	if j < 0.98 {
		t.Errorf("identical Jaccard = %.3f, want ~1", j)
	}
}

func TestJaccardMismatch(t *testing.T) {
	a := New(16, 1)
	if _, err := a.Jaccard(New(16, 2)); err == nil {
		t.Error("seed mismatch accepted")
	}
	if _, err := a.Jaccard(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestJaccardEmpty(t *testing.T) {
	a, b := New(16, 1), New(16, 1)
	j, err := a.Jaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 {
		t.Errorf("empty Jaccard = %v, want 0", j)
	}
}

func TestSizeBytes(t *testing.T) {
	s := New(16, 1)
	for x := uint64(0); x < 1000; x++ {
		s.Process(x)
	}
	if len(s.vals) != 16 || s.SizeBytes() != 128 {
		t.Errorf("retained %d values in %d bytes, want 16 in 128", len(s.vals), s.SizeBytes())
	}
}

func TestKForEpsilon(t *testing.T) {
	if k := KForEpsilon(0.1); k < 100 || k > 105 {
		t.Errorf("KForEpsilon(0.1) = %d, want ~102", k)
	}
	for _, bad := range []float64{0, -0.1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KForEpsilon(%v) did not panic", bad)
				}
			}()
			KForEpsilon(bad)
		}()
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1, ...) did not panic")
		}
	}()
	New(1, 0)
}
