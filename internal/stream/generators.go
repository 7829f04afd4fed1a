package stream

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
)

// Uniform generates n items whose labels are uniform over
// [0, universe); duplication arises naturally when n approaches or
// exceeds the universe size. Values are 1.
type Uniform struct {
	universe uint64
	n        int
	seed     uint64
	rng      *hashing.Xoshiro256
	emitted  int
}

// NewUniform returns a uniform generator. universe and n must be ≥ 1.
func NewUniform(universe uint64, n int, seed uint64) *Uniform {
	if universe < 1 || n < 1 {
		panic(fmt.Sprintf("stream: NewUniform(universe=%d, n=%d) out of range", universe, n))
	}
	u := &Uniform{universe: universe, n: n, seed: seed}
	u.Reset()
	return u
}

// Next implements Source.
func (u *Uniform) Next() (Item, bool) {
	if u.emitted >= u.n {
		return Item{}, false
	}
	u.emitted++
	return Item{Label: u.rng.Uint64n(u.universe), Value: 1}, true
}

// Reset implements Source.
func (u *Uniform) Reset() {
	u.rng = hashing.NewXoshiro256(u.seed)
	u.emitted = 0
}

// Sequential generates labels 0, 1, …, n-1, each exactly once. It is
// the structured worst case for sketches that assume strong hashing:
// an affine pairwise hash turns it into an arithmetic progression.
type Sequential struct {
	n    int
	next int
	// Stride spaces the labels (label = i*Stride + Offset), default 1.
	stride, offset uint64
}

// NewSequential returns a sequential generator over n labels.
func NewSequential(n int) *Sequential {
	return NewSequentialStride(n, 1, 0)
}

// NewSequentialStride generates labels offset, offset+stride, … .
func NewSequentialStride(n int, stride, offset uint64) *Sequential {
	if n < 1 || stride == 0 {
		panic(fmt.Sprintf("stream: NewSequentialStride(n=%d, stride=%d) out of range", n, stride))
	}
	return &Sequential{n: n, stride: stride, offset: offset}
}

// Next implements Source.
func (s *Sequential) Next() (Item, bool) {
	if s.next >= s.n {
		return Item{}, false
	}
	label := uint64(s.next)*s.stride + s.offset
	s.next++
	return Item{Label: label, Value: 1}, true
}

// Reset implements Source.
func (s *Sequential) Reset() { s.next = 0 }

// Zipf generates n items with labels in [0, universe) drawn from a
// Zipf distribution: Pr[label = r] ∝ 1/(r+1)^s. Skew s = 0 reduces to
// uniform; s ≈ 1 models heavy-hitter-dominated network traffic; large
// s concentrates almost all traffic on a few labels. Sampling is by
// inverse CDF with binary search over a precomputed table, so setup is
// O(universe) and each item costs O(log universe).
type Zipf struct {
	universe uint64
	n        int
	s        float64
	seed     uint64
	cum      []float64
	rng      *hashing.Xoshiro256
	emitted  int
}

// NewZipf returns a Zipf generator. universe must be in [1, 2^26] (the
// CDF table is materialized), n ≥ 1, and s ≥ 0.
func NewZipf(universe uint64, n int, s float64, seed uint64) *Zipf {
	if universe < 1 || universe > 1<<26 || n < 1 || s < 0 {
		panic(fmt.Sprintf("stream: NewZipf(universe=%d, n=%d, s=%v) out of range", universe, n, s))
	}
	z := &Zipf{universe: universe, n: n, s: s, seed: seed}
	z.cum = make([]float64, universe)
	total := 0.0
	for r := uint64(0); r < universe; r++ {
		total += 1.0 / math.Pow(float64(r+1), s)
		z.cum[r] = total
	}
	// Normalize to [0, 1] so lookups can use a uniform float directly.
	for r := range z.cum {
		z.cum[r] /= total
	}
	z.Reset()
	return z
}

// Next implements Source.
func (z *Zipf) Next() (Item, bool) {
	if z.emitted >= z.n {
		return Item{}, false
	}
	z.emitted++
	u := z.rng.Float64()
	r := sort.SearchFloat64s(z.cum, u)
	if r >= len(z.cum) {
		r = len(z.cum) - 1
	}
	return Item{Label: uint64(r), Value: 1}, true
}

// Reset implements Source.
func (z *Zipf) Reset() {
	z.rng = hashing.NewXoshiro256(z.seed)
	z.emitted = 0
}

// WithValues wraps a Source, replacing every item's value with
// fn(label). Because the value is a pure function of the label, the
// duplicate-insensitive fixed-value-per-label contract holds by
// construction.
type WithValues struct {
	src Source
	fn  func(label uint64) uint64
}

// NewWithValues builds the wrapper.
func NewWithValues(src Source, fn func(label uint64) uint64) *WithValues {
	return &WithValues{src: src, fn: fn}
}

// Next implements Source.
func (w *WithValues) Next() (Item, bool) {
	it, ok := w.src.Next()
	if !ok {
		return Item{}, false
	}
	it.Value = w.fn(it.Label)
	return it, true
}

// Reset implements Source.
func (w *WithValues) Reset() { w.src.Reset() }
