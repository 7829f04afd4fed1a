// Package core implements the primary contribution of Gibbons &
// Tirthapura, "Estimating simple functions on the union of data
// streams" (SPAA 2001): coordinated adaptive sampling of the distinct
// labels in one or more data streams, and the (ε, δ)-estimators built
// on that sample — distinct counting (F0), predicate counting, and
// duplicate-insensitive sums, all over the *set union* of streams.
//
// # The algorithm
//
// A Sampler holds at most Capacity distinct labels. Every label is
// assigned a random level ℓ(x) with Pr[ℓ(x) ≥ i] ≈ 2^-i by hashing x
// with a pairwise-independent function and counting leading zero bits.
// The sampler keeps the set of distinct labels seen so far whose level
// is at least the sampler's current level; when that set would exceed
// Capacity, the level rises and low-level labels are discarded. The
// central invariant (checked by the tests) is
//
//	entries == { x ∈ distinct(stream so far) : ℓ(x) ≥ level }
//
// which makes the sampler completely insensitive to duplicates and to
// arrival order, and makes samplers that share a hash seed
// *coordinated*: the same label survives the same levels everywhere.
// Two coordinated samplers therefore merge by set union (plus a
// possible level raise), giving a sample of the union of the streams —
// the property that allows each distributed party to communicate only
// a single small sketch after its stream ends.
//
// The estimate of the number of distinct labels is |entries| · 2^level;
// any function of the sampled labels (predicate counts, value sums)
// scales the same way.
//
// # Representation
//
// The sample is one flat open-addressing table with linear probing,
// stored in 16-slot buckets that keep each field in its own array, so
// a (label, weight, level) slot costs 17 bytes. A table is at most
// three quarters full: a built one has room for Capacity+1 entries, a
// decoded one for twice its count up to Capacity+1, and growth stops
// at the Capacity+1 length. Processing probes it; merging
// probe-inserts the other sampler's occupied slots above the level;
// raising is one histogram pass over the cached levels followed by an
// in-place filter; cloning is a copy. Labels are sorted only when
// encoding, which keeps the wire format canonical. An Estimator holds
// its copies by value and decodes every copy's table into one slab.
//
// An Estimator bundles r independent Sampler copies and returns the
// median of their estimates, boosting the success probability from
// constant to 1-δ with r = Θ(log 1/δ) — the standard amplification the
// paper uses.
package core

import (
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// Errors returned by Merge and UnmarshalBinary. Both wrap the
// repository-wide sketch sentinels, so errors.Is(err,
// sketch.ErrMismatch) classifies a core failure without importing
// this package.
var (
	// ErrMismatch is returned by Merge when the two sketches were not
	// built with identical configurations (seed, capacity, family):
	// merging uncoordinated sketches would silently produce garbage,
	// which is precisely the failure mode the paper's coordinated
	// seeds exist to prevent.
	ErrMismatch = fmt.Errorf("core: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

	// ErrCorrupt is returned when decoding a malformed sketch.
	ErrCorrupt = fmt.Errorf("core: corrupt sketch encoding: %w", sketch.ErrCorrupt)
)

// FamilyKind selects the hash family a sampler draws its level
// function from. The paper's analysis needs only pairwise
// independence; the other families exist for the E10 ablation.
type FamilyKind uint8

const (
	// FamilyPairwise is the 2-universal (a·x+b) mod p family — the
	// paper's choice and the package default.
	FamilyPairwise FamilyKind = iota
	// FamilyFourWise is a degree-3 polynomial (4-universal) family.
	FamilyFourWise
	// FamilyTabulation is simple tabulation hashing (3-independent,
	// behaves nearly fully random; 16 KiB of tables per function).
	FamilyTabulation

	numFamilyKinds
)

// String implements fmt.Stringer.
func (k FamilyKind) String() string {
	switch k {
	case FamilyPairwise:
		return "pairwise"
	case FamilyFourWise:
		return "4wise"
	case FamilyTabulation:
		return "tabulation"
	default:
		return fmt.Sprintf("FamilyKind(%d)", uint8(k))
	}
}

// New instantiates a hash function of this kind from a seed. Equal
// (kind, seed) pairs always yield identical functions.
func (k FamilyKind) New(seed uint64) hashing.Family {
	switch k {
	case FamilyPairwise:
		return hashing.NewPairwise(seed)
	case FamilyFourWise:
		return hashing.NewKWise(4, seed)
	case FamilyTabulation:
		return hashing.NewTabulation(seed)
	default:
		panic(fmt.Sprintf("core: unknown hash family %d", k))
	}
}

// valid reports whether k names a known family.
func (k FamilyKind) valid() bool { return k < numFamilyKinds }

// CapacityForEpsilon returns a sample capacity that targets relative
// error ε with constant success probability per copy (to be amplified
// by medians). The paper's analysis gives c = Θ(1/ε²); the constant 12
// makes a single copy a ~5/6-probability ε-estimator in our
// measurements (E2), matching the shape of the paper's bound.
func CapacityForEpsilon(eps float64) int {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("core: epsilon must be in (0, 1], got %v", eps))
	}
	c := int(12.0/(eps*eps) + 0.5)
	if c < 4 {
		c = 4
	}
	return c
}

// EpsilonForCapacity inverts CapacityForEpsilon: the relative error a
// single copy of the given capacity targets.
func EpsilonForCapacity(c int) float64 {
	if c < 1 {
		panic(fmt.Sprintf("core: capacity must be positive, got %d", c))
	}
	return min(1, math.Sqrt(12.0/float64(c)))
}

// CopiesForDelta returns the number of independent copies whose median
// achieves failure probability δ, the standard Chernoff amplification
// count Θ(log 1/δ). The result is always odd so the median is unique.
func CopiesForDelta(delta float64) int {
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("core: delta must be in (0, 1), got %v", delta))
	}
	r := 1
	for p := 1.0; p > delta; p /= 2 {
		r += 2
	}
	return r
}
