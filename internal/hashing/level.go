package hashing

import "math/bits"

// MaxLevel is the largest level GeometricLevel can assign. Hash values
// live in [0, 2^61), so a value can have at most 61 leading zero bits
// in its 61-bit representation (the all-zero value is assigned MaxLevel).
const MaxLevel = 61

// GeometricLevel maps a hash value v, uniform in [0, p) with
// p = 2^61 - 1, to a level ℓ ≥ 0 such that Pr[ℓ ≥ i] = 2^(61-i)/p ≈ 2^-i
// for 0 ≤ i ≤ 61: the number of leading zero bits of v viewed as a
// 61-bit word.
//
// This is the sampling function of the Gibbons–Tirthapura scheme: an
// item "survives at level i" iff its level is at least i, so raising
// the level of a sample halves (in expectation) the surviving items,
// and — crucially — parties sharing the hash seed agree exactly on
// which items survive.
func GeometricLevel(v uint64) int {
	if v == 0 {
		return MaxLevel
	}
	return MaxLevel - bits.Len64(v)
}

// Fraction maps a hash value in [0, p) to the unit interval [0, 1)
// using the value's top 53 bits, so the conversion is exact (no
// float64 rounding can push the result to 1.0). KMV-style sketches use
// the fractional view; level-based sketches use GeometricLevel. The
// two views of one hash value are consistent: level ≥ i ⇔
// fraction < 2^-i for i up to the 53-bit resolution.
func Fraction(v uint64) float64 {
	return float64(v>>8) / (1 << 53)
}
