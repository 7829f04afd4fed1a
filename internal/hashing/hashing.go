// Package hashing provides the random-hashing substrate used by every
// sketch in this repository: deterministic seedable random number
// generators, pairwise- and k-wise-independent hash families over the
// Mersenne prime field GF(2^61-1), tabulation hashing, and the geometric
// "level" assignment at the heart of the Gibbons–Tirthapura coordinated
// sampling scheme.
//
// The paper's analysis requires only pairwise independence, which is why
// the package centers on the classic (a·x + b) mod p construction: it is
// cheap (one 64×64→128 multiply and a Mersenne reduction per item),
// needs two field elements of state, and is exactly reproducible from a
// seed — the property that lets physically distributed parties
// coordinate their samples by sharing nothing but the seed.
package hashing

// Family is a hash function drawn from some family, mapping 64-bit keys
// to values uniform in [0, MersennePrime), the range of every family
// in this package. Implementations must be deterministic: equal seeds
// produce identical functions, which is what coordinated sampling
// across distributed sites relies on.
type Family interface {
	// Hash maps a key to a value in [0, MersennePrime).
	Hash(x uint64) uint64
}
