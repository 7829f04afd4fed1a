package core

import "fmt"

// SumSampler is the paper-faithful estimator for SumDistinct — the sum
// of values over the distinct labels of the union — for values in
// [0..R]. It reduces the sum to distinct counting exactly as the paper
// does: a label ℓ with value v is expanded into the v sub-items
// (ℓ, 1), …, (ℓ, v), so that the number of distinct sub-items in the
// union equals Σ_{distinct ℓ} v(ℓ), and the (ε, δ) guarantee of the
// distinct sampler transfers verbatim.
//
// Processing a label costs O(v) hash evaluations, so the type enforces
// a bound R = MaxValue at construction; the follow-up line of work on
// range-efficient F0 (Pavan & Tirthapura, ICDE 2005) removes this cost
// and is out of scope here. For large R with well-behaved value
// distributions, the weighted Sampler (ProcessWeighted + EstimateSum)
// is the practical alternative; experiment E8 compares the two.
type SumSampler struct {
	inner    *Sampler
	maxValue uint64
}

// subItemBits is the number of low bits reserved for the sub-item
// index in the expanded key. Labels must fit in the remaining bits.
const subItemBits = 16

// MaxSumValue is the largest per-label value a SumSampler accepts.
const MaxSumValue = (1 << subItemBits) - 1

// MaxSumLabel is the largest label a SumSampler accepts; together with
// MaxSumValue it makes the (label, index) → key pairing injective.
const MaxSumLabel = (1 << (64 - subItemBits)) - 1

// NewSumSampler returns an empty SumSampler. maxValue caps per-label
// values (≤ MaxSumValue); cfg is the underlying sampler configuration.
func NewSumSampler(cfg Config, maxValue uint64) *SumSampler {
	if maxValue == 0 || maxValue > MaxSumValue {
		panic(fmt.Sprintf("core: SumSampler maxValue must be in [1, %d], got %d", MaxSumValue, maxValue))
	}
	return &SumSampler{inner: NewSampler(cfg), maxValue: maxValue}
}

// Process observes one occurrence of label carrying value. All
// occurrences of a label must carry the same value (the
// duplicate-insensitive model); violations are not detected — the
// first-expanded sub-items win, as in the weighted sampler.
// It returns an error if label or value is out of range.
func (s *SumSampler) Process(label, value uint64) error {
	if value > s.maxValue {
		return fmt.Errorf("core: value %d exceeds SumSampler bound %d", value, s.maxValue)
	}
	if label > MaxSumLabel {
		return fmt.Errorf("core: label %d exceeds SumSampler label space", label)
	}
	for j := uint64(1); j <= value; j++ {
		s.inner.Process(label<<subItemBits | j)
	}
	return nil
}

// Merge folds other into s; both must share configuration and value
// bound.
func (s *SumSampler) Merge(other *SumSampler) error {
	if other == nil {
		return fmt.Errorf("%w: nil sum sampler", ErrMismatch)
	}
	if s.maxValue != other.maxValue {
		return fmt.Errorf("%w: value bounds %d vs %d", ErrMismatch, s.maxValue, other.maxValue)
	}
	return s.inner.Merge(other.inner)
}

// EstimateSum returns the SumDistinct estimate.
func (s *SumSampler) EstimateSum() float64 {
	return s.inner.EstimateDistinct()
}

// EstimateSumWhere estimates the sum restricted to distinct labels
// satisfying pred, which is applied to the original label recovered
// from each sampled sub-item.
func (s *SumSampler) EstimateSumWhere(pred func(label uint64) bool) float64 {
	return s.inner.EstimateCountWhere(func(key uint64) bool {
		return pred(key >> subItemBits)
	})
}

// Level exposes the inner sampling level.
func (s *SumSampler) Level() int { return s.inner.Level() }

// Len exposes the number of retained sub-items.
func (s *SumSampler) Len() int { return s.inner.Len() }

// SizeBytes returns the wire size of the underlying sketch.
func (s *SumSampler) SizeBytes() int { return s.inner.SizeBytes() }

// MaxValue returns the per-label value bound.
func (s *SumSampler) MaxValue() uint64 { return s.maxValue }
