package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hashing"
)

// buildPair sketches two streams with controlled overlap: A = [0, na),
// B = [na-shared, na-shared+nb).
func buildPair(cfg Config, na, nb, shared uint64) (a, b *Sampler) {
	a, b = NewSampler(cfg), NewSampler(cfg)
	for x := uint64(0); x < na; x++ {
		a.Process(x)
	}
	for x := na - shared; x < na-shared+nb; x++ {
		b.Process(x)
	}
	return a, b
}

func TestIntersectionAccuracy(t *testing.T) {
	cfg := Config{Capacity: 4096, Seed: 11}
	a, b := buildPair(cfg, 50000, 50000, 20000)
	got, err := EstimateIntersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-20000) / 20000; rel > 0.15 {
		t.Errorf("intersection %.0f vs 20000: rel %.3f", got, rel)
	}
	// Symmetry.
	got2, err := EstimateIntersection(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != got2 {
		t.Errorf("intersection not symmetric: %v vs %v", got, got2)
	}
}

func TestIntersectionDisjoint(t *testing.T) {
	cfg := Config{Capacity: 1024, Seed: 3}
	a, b := buildPair(cfg, 20000, 20000, 0)
	got, err := EstimateIntersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("disjoint intersection = %v, want 0", got)
	}
}

func TestIntersectionIdentical(t *testing.T) {
	cfg := Config{Capacity: 1024, Seed: 5}
	a, b := NewSampler(cfg), NewSampler(cfg)
	for x := uint64(0); x < 30000; x++ {
		a.Process(x)
		b.Process(x)
	}
	got, err := EstimateIntersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != a.EstimateDistinct() {
		t.Errorf("self-intersection %v != distinct estimate %v", got, a.EstimateDistinct())
	}
}

func TestDifferenceAccuracy(t *testing.T) {
	cfg := Config{Capacity: 4096, Seed: 7}
	a, b := buildPair(cfg, 50000, 50000, 20000)
	got, err := EstimateDifference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-30000) / 30000; rel > 0.15 {
		t.Errorf("difference %.0f vs 30000: rel %.3f", got, rel)
	}
	// A \ A = 0 exactly.
	a2, _ := buildPair(cfg, 50000, 50000, 20000)
	self, err := EstimateDifference(a, a2)
	if err != nil {
		t.Fatal(err)
	}
	if self != 0 {
		t.Errorf("A \\ A = %v", self)
	}
}

func TestInclusionExclusionConsistency(t *testing.T) {
	// |A∩B| + |A\B| must equal A's estimate at the common level when
	// levels agree (both computed over the same sample).
	cfg := Config{Capacity: 2048, Seed: 9}
	a, b := buildPair(cfg, 40000, 40000, 15000)
	inter, err := EstimateIntersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := EstimateDifference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.level == b.level {
		if inter+diff != a.EstimateDistinct() {
			t.Errorf("|A∩B|+|A\\B| = %v, |A| = %v", inter+diff, a.EstimateDistinct())
		}
	}
}

func TestJaccard(t *testing.T) {
	cfg := Config{Capacity: 4096, Seed: 13}
	// |A∪B| = 80000, |A∩B| = 20000 → J = 0.25.
	a, b := buildPair(cfg, 50000, 50000, 20000)
	got, err := EstimateJaccard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.05 {
		t.Errorf("Jaccard = %.3f, want ~0.25", got)
	}
	// Identical sets.
	a2, _ := buildPair(cfg, 50000, 50000, 20000)
	self, err := EstimateJaccard(a, a2)
	if err != nil {
		t.Fatal(err)
	}
	if self != 1 {
		t.Errorf("self Jaccard = %v, want 1", self)
	}
	// Disjoint sets.
	c, d := buildPair(cfg, 10000, 10000, 0)
	j, err := EstimateJaccard(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 {
		t.Errorf("disjoint Jaccard = %v, want 0", j)
	}
}

func TestJaccardEmpty(t *testing.T) {
	cfg := Config{Capacity: 16, Seed: 1}
	j, err := EstimateJaccard(NewSampler(cfg), NewSampler(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 {
		t.Errorf("empty Jaccard = %v", j)
	}
}

func TestSetOpsMismatch(t *testing.T) {
	a := NewSampler(Config{Capacity: 16, Seed: 1})
	b := NewSampler(Config{Capacity: 16, Seed: 2})
	if _, err := EstimateIntersection(a, b); !errors.Is(err, ErrMismatch) {
		t.Error("intersection accepted uncoordinated samplers")
	}
	if _, err := EstimateDifference(a, b); !errors.Is(err, ErrMismatch) {
		t.Error("difference accepted uncoordinated samplers")
	}
	if _, err := EstimateJaccard(a, b); !errors.Is(err, ErrMismatch) {
		t.Error("jaccard accepted uncoordinated samplers")
	}
	if _, err := EstimateIntersection(a, nil); !errors.Is(err, ErrMismatch) {
		t.Error("nil accepted")
	}
}

func TestEstimatorSetOps(t *testing.T) {
	cfg := EstimatorConfig{Capacity: 1024, Copies: 5, Seed: 21}
	a, b := NewEstimator(cfg), NewEstimator(cfg)
	for x := uint64(0); x < 50000; x++ {
		a.Process(x)
	}
	for x := uint64(30000); x < 80000; x++ {
		b.Process(x)
	}
	inter, err := a.EstimateIntersection(b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(inter-20000) / 20000; rel > 0.15 {
		t.Errorf("estimator intersection rel %.3f", rel)
	}
	diff, err := a.EstimateDifference(b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(diff-30000) / 30000; rel > 0.15 {
		t.Errorf("estimator difference rel %.3f", rel)
	}
	j, err := a.EstimateJaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.25) > 0.05 {
		t.Errorf("estimator Jaccard = %.3f", j)
	}
	// Mismatch paths.
	other := NewEstimator(EstimatorConfig{Capacity: 1024, Copies: 5, Seed: 22})
	if _, err := a.EstimateIntersection(other); !errors.Is(err, ErrMismatch) {
		t.Error("estimator set op accepted mismatched seeds")
	}
	if _, err := a.EstimateJaccard(nil); !errors.Is(err, ErrMismatch) {
		t.Error("nil estimator accepted")
	}
}

func TestIntersectionSmallSelectivity(t *testing.T) {
	// Tiny intersections behave like low-selectivity predicates: the
	// estimate is noisy but unbiased-ish across seeds. Check the
	// median over an ensemble.
	var ests []float64
	for seed := uint64(0); seed < 21; seed++ {
		cfg := Config{Capacity: 1024, Seed: hashing.Mix64(seed)}
		a, b := buildPair(cfg, 100000, 100000, 1000)
		v, err := EstimateIntersection(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, v)
	}
	med := Median(ests)
	if med < 100 || med > 4000 {
		t.Errorf("median tiny-intersection estimate %v wildly off 1000", med)
	}
}
