// Package kmv implements the K-Minimum-Values (bottom-k) distinct
// count sketch — the modern descendant of the paper's coordinated
// sampling idea (the lineage runs GT'01 → Bar-Yossef et al. '02 →
// KMV/theta sketches as in Apache DataSketches).
//
// The sketch keeps the k smallest distinct hash values of the stream;
// with the k-th smallest value mapped to the unit interval as v, the
// estimate is (k-1)/v. Like the GT sampler, KMV sketches sharing a
// seed are coordinated: they merge by keeping the k smallest of the
// union, and the overlap of two sketches' bottom-k sets estimates the
// Jaccard similarity of the underlying streams.
package kmv

import (
	"fmt"
	"slices"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("kmv: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is a bottom-k distinct-count sketch. Construct with New.
type Sketch struct {
	k    int
	seed uint64
	hash hashing.Pairwise
	// vals holds the retained hash values — the k smallest distinct
	// values seen — strictly ascending: the last is the eviction
	// candidate and the k-th value, and the encoding is one delta walk.
	vals []uint64
}

// New returns a bottom-k sketch. Relative standard error ≈ 1/√(k-2).
// k must be ≥ 2.
func New(k int, seed uint64) *Sketch {
	if k < 2 {
		panic(fmt.Sprintf("kmv: k must be >= 2, got %d", k))
	}
	return &Sketch{k: k, seed: seed, hash: hashing.NewPairwise(seed), vals: make([]uint64, 0, k)}
}

// Process observes one occurrence of label, folding its hash value
// into the k smallest.
func (s *Sketch) Process(label uint64) {
	v := s.hash.Hash(label)
	n := len(s.vals)
	if n == s.k && v >= s.vals[n-1] {
		return // not smaller than the current k-th value
	}
	i, dup := slices.BinarySearch(s.vals, v)
	if dup {
		return
	}
	if n < s.k {
		// vals grows to k once, then shifts in place.
		s.vals = append(s.vals, 0)
	}
	// Shift the tail up one slot (dropping the largest when full).
	copy(s.vals[i+1:], s.vals[i:])
	s.vals[i] = v
}

// Estimate returns the distinct-count estimate: exact while fewer than
// k distinct hash values have been seen, (k-1)/v_k afterwards.
func (s *Sketch) Estimate() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return estimate(s.k, len(s.vals), s.vals[len(s.vals)-1])
}

// estimate is the bottom-k estimator over n retained values whose
// largest is vk.
func estimate(k, n int, vk uint64) float64 {
	if n < k {
		return float64(n)
	}
	f := hashing.Fraction(vk)
	if f == 0 {
		return float64(k)
	}
	return float64(k-1) / f
}

// bottomUnion walks the k smallest distinct values of a ∪ b (both
// strictly ascending) without materializing them. It returns how many
// values of a and of b that prefix takes and how many of those are
// shared, so the prefix holds ia+ib-both values.
func bottomUnion(a, b []uint64, k int) (ia, ib, both int) {
	for ia+ib-both < k && (ia < len(a) || ib < len(b)) {
		switch {
		case ib == len(b) || (ia < len(a) && a[ia] < b[ib]):
			ia++
		case ia == len(a) || b[ib] < a[ia]:
			ib++
		default:
			ia, ib, both = ia+1, ib+1, both+1
		}
	}
	return ia, ib, both
}

// Merge folds other into s, keeping the bottom-k of the union. Both
// sketches must share k and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *kmv.Sketch", ErrMismatch, o)
	}
	if other == nil || s.k != other.k || s.seed != other.seed {
		return ErrMismatch
	}
	ia, ib, both := bottomUnion(s.vals, other.vals, s.k)
	m := ia + ib - both
	if m > cap(s.vals) {
		// Grows with the merged size, which is at most k.
		s.vals = append(s.vals, make([]uint64, m-len(s.vals))...)
	}
	// Merge the two prefixes back to front into s.vals[:m]. The write
	// index never falls below the read index into s's own values,
	// because the prefixes hold at least as many distinct values as
	// s's prefix alone, so no unread value is overwritten.
	a, b, out := s.vals, other.vals, s.vals[:m]
	i, j := ia-1, ib-1
	for w := m - 1; w >= 0; w-- {
		switch {
		case j < 0 || (i >= 0 && a[i] > b[j]):
			out[w], i = a[i], i-1
		case i < 0 || b[j] > a[i]:
			out[w], j = b[j], j-1
		default:
			out[w], i, j = a[i], i-1, j-1
		}
	}
	s.vals = out
	return nil
}

// Jaccard estimates the Jaccard similarity |A∩B| / |A∪B| of the two
// sketched streams by the overlap within the bottom-k of the union.
// Both sketches must share k and seed.
func (s *Sketch) Jaccard(other *Sketch) (float64, error) {
	if other == nil || s.k != other.k || s.seed != other.seed {
		return 0, ErrMismatch
	}
	inBoth, _, kPrime, _ := s.overlap(other)
	if kPrime == 0 {
		return 0, nil
	}
	return float64(inBoth) / float64(kPrime), nil
}

// SizeBytes returns the sketch payload size: 8 bytes per retained
// value.
func (s *Sketch) SizeBytes() int { return 8 * len(s.vals) }

// KForEpsilon returns the k targeting relative error eps
// (stderr ≈ 1/√(k-2)).
func KForEpsilon(eps float64) int {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("kmv: epsilon must be in (0, 1], got %v", eps))
	}
	k := int(1/(eps*eps)+0.5) + 2
	if k < 2 {
		k = 2
	}
	return k
}
