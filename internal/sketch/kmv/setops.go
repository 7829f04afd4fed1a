package kmv

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

// Set-expression estimators over coordinated bottom-k sketches. Two
// KMV sketches sharing a seed are coordinated the same way the
// paper's samplers are: the bottom-k' of their union is a uniform
// k'-minimum sample of A ∪ B under the shared hash, and membership of
// each sampled value in A's and B's retained sets is known exactly
// (a value small enough for the union's bottom-k' is small enough for
// either side's bottom-k). Scaling the observed overlap fractions by
// the union estimate gives the standard KMV set-operation estimators
// (Beyer et al.; the DataSketches theta-sketch lineage).
//
// Unlike the GT sampler, a bottom-k sketch of A ∩ B is *not*
// derivable from the two operand sketches — the k smallest hashes of
// the intersection need not appear in either bottom-k — so this kind
// implements sketch.SetAlgebra (scalars) but not sketch.SetCombiner:
// set operators over KMV groups are answerable only at an expression
// root, and the coordinator gates nesting accordingly.

// setSibling asserts other is a merge-compatible *Sketch.
func (s *Sketch) setSibling(other sketch.Sketch) (*Sketch, error) {
	o, ok := other.(*Sketch)
	if !ok {
		return nil, fmt.Errorf("%w: set algebra between *kmv.Sketch and %T", ErrMismatch, other)
	}
	if o == nil || s.k != o.k || s.seed != o.seed {
		return nil, ErrMismatch
	}
	return o, nil
}

// overlap walks the bottom-k' of the union of s and o once and
// returns how many of its values are in both sketches and how many
// only in s, with k' and the union's estimate.
func (s *Sketch) overlap(o *Sketch) (inBoth, inFirstOnly, kPrime int, unionEst float64) {
	ia, ib, both := bottomUnion(s.vals, o.vals, s.k)
	kPrime = ia + ib - both
	var vk uint64
	if ia > 0 {
		vk = s.vals[ia-1]
	}
	if ib > 0 && o.vals[ib-1] > vk {
		vk = o.vals[ib-1]
	}
	return both, ia - both, kPrime, estimate(s.k, kPrime, vk)
}

// SetIntersect implements sketch.SetAlgebra:
// |A ∩ B| ≈ (overlap / k') · |A ∪ B|.
func (s *Sketch) SetIntersect(other sketch.Sketch) (float64, error) {
	o, err := s.setSibling(other)
	if err != nil {
		return 0, err
	}
	inBoth, _, kPrime, unionEst := s.overlap(o)
	if kPrime == 0 {
		return 0, nil
	}
	return float64(inBoth) / float64(kPrime) * unionEst, nil
}

// SetDiff implements sketch.SetAlgebra:
// |A \ B| ≈ (A-only fraction) · |A ∪ B|.
func (s *Sketch) SetDiff(other sketch.Sketch) (float64, error) {
	o, err := s.setSibling(other)
	if err != nil {
		return 0, err
	}
	_, inFirstOnly, kPrime, unionEst := s.overlap(o)
	if kPrime == 0 {
		return 0, nil
	}
	return float64(inFirstOnly) / float64(kPrime) * unionEst, nil
}

// SetJaccard implements sketch.SetAlgebra; it is the existing
// bottom-k overlap ratio (Jaccard) behind the capability interface.
func (s *Sketch) SetJaccard(other sketch.Sketch) (float64, error) {
	o, err := s.setSibling(other)
	if err != nil {
		return 0, err
	}
	return s.Jaccard(o)
}

// RelativeStdErr implements sketch.Accuracy: stderr ≈ 1/√(k-2).
func (s *Sketch) RelativeStdErr() float64 {
	if s.k <= 2 {
		return 1
	}
	return 1 / math.Sqrt(float64(s.k-2))
}
