package fm

import (
	"math"
	"testing"

	"repro/internal/hashing"
)

func TestAccuracy(t *testing.T) {
	const truth = 100000
	s := New(256, 42)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
		s.Process(x) // duplicates are free
	}
	got := s.Estimate()
	// PCSA with pairwise hashing is noticeably biased; allow 35%.
	if rel := math.Abs(got-truth) / truth; rel > 0.35 {
		t.Errorf("estimate %.0f vs %d: rel err %.3f", got, truth, rel)
	}
}

func TestDeterministic(t *testing.T) {
	a, b := New(64, 9), New(64, 9)
	for x := uint64(0); x < 1000; x++ {
		a.Process(x)
		b.Process(x)
	}
	if a.Estimate() != b.Estimate() {
		t.Error("same seed produced different estimates")
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, both := New(64, 3), New(64, 3), New(64, 3)
	for x := uint64(0); x < 5000; x++ {
		a.Process(x)
		both.Process(x)
	}
	for x := uint64(3000); x < 9000; x++ {
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

func TestMergeMismatch(t *testing.T) {
	a := New(64, 3)
	if err := a.Merge(New(32, 3)); err == nil {
		t.Error("numMaps mismatch accepted")
	}
	if err := a.Merge(New(64, 4)); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestEmptyEstimate(t *testing.T) {
	if got := New(32, 1).Estimate(); got != float64(32)/phi {
		// All-zero bitmaps give mean R = 0 -> m/phi; this is PCSA's
		// well-known small-cardinality bias, recorded here as a
		// characterization test.
		t.Errorf("empty estimate = %v, want %v", got, float64(32)/phi)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(64, 1).SizeBytes(); got != 512 {
		t.Errorf("SizeBytes = %d, want 512", got)
	}
	if got := New(64, 1).numMaps; got != 64 {
		t.Errorf("numMaps = %d, want 64", got)
	}
}

func TestNumMapsForEpsilon(t *testing.T) {
	if m := NumMapsForEpsilon(0.1); m < 50 || m > 70 {
		t.Errorf("NumMapsForEpsilon(0.1) = %d, want ~61", m)
	}
	for _, bad := range []float64{0, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NumMapsForEpsilon(%v) did not panic", bad)
				}
			}()
			NumMapsForEpsilon(bad)
		}()
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	New(0, 1)
}

func TestMonotoneInDistinct(t *testing.T) {
	// The estimate must grow (weakly) as more distinct items arrive.
	s := New(128, 5)
	last := 0.0
	r := hashing.NewXoshiro256(1)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20000; j++ {
			s.Process(r.Uint64())
		}
		est := s.Estimate()
		if est < last {
			t.Fatalf("estimate decreased: %.0f -> %.0f", last, est)
		}
		last = est
	}
}

// TestWeakHashingBias is a characterization of the paper's motivating
// observation: PCSA under pairwise-only hashing is biased on
// structured key sets, while the strong-hash variant is accurate on
// the same input (see TestAccuracy). The GT sampler needs no such
// strengthening.
func TestWeakHashingBias(t *testing.T) {
	const truth = 100000
	s := NewWeak(256, 42)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	rel := math.Abs(s.Estimate()-truth) / truth
	if rel < 0.2 {
		t.Logf("note: weak-hash FM unexpectedly accurate on this seed (rel=%.3f)", rel)
	}
	// Weak and strong sketches must not merge.
	if err := New(256, 42).Merge(NewWeak(256, 42)); err == nil {
		t.Error("strong/weak merge accepted")
	}
}
