package ams

import (
	"math"
	"testing"
)

func TestConstantFactor(t *testing.T) {
	// AMS guarantees only a constant factor; check the estimate is
	// within a factor of 8 of the truth with 15 copies (deterministic
	// for fixed seed).
	const truth = 100000
	s := New(15, 42)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	got := s.Estimate()
	if got < truth/8 || got > truth*8 {
		t.Errorf("estimate %.0f outside [%d, %d]", got, truth/8, truth*8)
	}
}

func TestEmpty(t *testing.T) {
	if got := New(5, 1).Estimate(); got != 0 {
		t.Errorf("empty estimate = %v, want 0", got)
	}
}

func TestDuplicateInsensitive(t *testing.T) {
	a, b := New(5, 7), New(5, 7)
	for x := uint64(0); x < 1000; x++ {
		a.Process(x)
		b.Process(x)
		b.Process(x)
		b.Process(x)
	}
	if a.Estimate() != b.Estimate() {
		t.Error("duplicates changed the estimate")
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, both := New(7, 3), New(7, 3), New(7, 3)
	for x := uint64(0); x < 5000; x++ {
		a.Process(x)
		both.Process(x)
	}
	for x := uint64(2000); x < 8000; x++ {
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
	a := New(5, 3)
	if err := a.Merge(New(7, 3)); err == nil {
		t.Error("copies mismatch accepted")
	}
	if err := a.Merge(New(5, 4)); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestSizeAndCopies(t *testing.T) {
	if got := len(New(9, 1).maxLvl); got != 9 {
		t.Errorf("New(9, ...) keeps %d level bytes, want one per copy", got)
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

func TestMedianHelper(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestErrorPlateaus(t *testing.T) {
	// The paper's point about AMS: adding copies does not make it an
	// (ε, δ)-estimator. With many copies the estimate is still a
	// power-of-two-ish value, so relative error bottoms out around
	// 2^±0.5. Verify the 63-copy estimate is no better than 15%.
	const truth = 1 << 17 // power of two: estimate is 2^(r+0.5) ≠ truth
	s := New(63, 9)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	rel := math.Abs(s.Estimate()-truth) / truth
	if rel < 0.15 {
		t.Errorf("AMS error %v unexpectedly small; estimator semantics changed?", rel)
	}
}
