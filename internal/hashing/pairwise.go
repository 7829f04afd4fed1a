package hashing

import "fmt"

// Pairwise is a hash function drawn from the 2-universal family
// h(x) = (a·x + b) mod p over GF(p), p = 2^61 - 1, with a ∈ [1, p) and
// b ∈ [0, p). For any two distinct keys x ≠ y the pair (h(x), h(y)) is
// uniform over [0,p)², which is exactly the independence the
// Gibbons–Tirthapura analysis requires.
//
// Keys larger than p are folded into the field with modP before
// evaluation; this costs nothing for the 61-bit universes used in the
// experiments and keeps the family well-defined on all of uint64.
type Pairwise struct {
	a, b uint64
}

// NewPairwise draws a function from the family using the given seed.
// Equal seeds yield identical functions.
func NewPairwise(seed uint64) Pairwise {
	sm := NewSplitMix64(seed)
	a := modP(sm.Next())
	for a == 0 {
		a = modP(sm.Next())
	}
	return Pairwise{a: a, b: modP(sm.Next())}
}

// Hash returns h(x) ∈ [0, p).
func (h Pairwise) Hash(x uint64) uint64 {
	return AddModP(MulModP(h.a, modP(x)), h.b)
}

// KWise is a hash function drawn from a k-universal family:
// h(x) = (c_{k-1}·x^{k-1} + … + c_1·x + c_0) mod p, evaluated by
// Horner's rule. Used by the E10 ablation to check that raising the
// independence beyond pairwise does not change the sampler's accuracy,
// as the paper's analysis predicts.
type KWise struct {
	coef []uint64 // degree k-1 polynomial, coef[0] is the constant term
}

// NewKWise draws a function from the k-universal family. It panics if
// k < 2.
func NewKWise(k int, seed uint64) KWise {
	if k < 2 {
		panic(fmt.Sprintf("hashing: NewKWise needs k >= 2, got %d", k))
	}
	sm := NewSplitMix64(seed)
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = modP(sm.Next())
	}
	// The leading coefficient must be nonzero for full degree.
	for coef[k-1] == 0 {
		coef[k-1] = modP(sm.Next())
	}
	return KWise{coef: coef}
}

// K returns the independence parameter of the family.
func (h KWise) K() int { return len(h.coef) }

// Hash returns h(x) ∈ [0, p).
func (h KWise) Hash(x uint64) uint64 {
	xm := modP(x)
	acc := h.coef[len(h.coef)-1]
	for i := len(h.coef) - 2; i >= 0; i-- {
		acc = AddModP(MulModP(acc, xm), h.coef[i])
	}
	return acc
}
