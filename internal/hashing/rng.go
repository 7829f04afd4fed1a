package hashing

import "math/bits"

// SplitMix64 is a tiny, fast, full-period 64-bit generator. It is used
// to expand a single user-provided seed into the many independent seeds
// needed by hash families and sketch copies. The constants are from
// Steele, Lea & Flood, "Fast splittable pseudorandom number generators"
// (OOPSLA 2014).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a strong 64-bit
// bit mixer, useful to decorrelate structured seeds (e.g. seed+siteID).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 (Blackman & Vigna), the
// general-purpose generator used by workload generators. State is
// initialized from SplitMix64 so that any 64-bit seed is acceptable,
// including zero.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator seeded from seed via SplitMix64.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// xoshiro must not be seeded with all zeros; splitmix cannot
	// produce four consecutive zeros, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

// Uint64 returns the next 64 uniformly random bits.
func (x *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's nearly-divisionless method.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hashing: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}
