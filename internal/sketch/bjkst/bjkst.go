// Package bjkst implements the Bar-Yossef–Jayram–Kumar–Sivakumar–
// Trevisan distinct-elements sketch (RANDOM 2002), the immediate
// successor to the paper's scheme. It is structurally the same
// adaptive level-sampling idea, but it stores a short *fingerprint*
// g(x) of each sampled item instead of the item itself, trading a
// small fingerprint-collision bias for fewer bits per slot. Comparing
// it against the GT sampler (E1/E4) shows exactly that trade.
package bjkst

import (
	"fmt"
	"slices"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("bjkst: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is a BJKST distinct-count sketch. Construct with New.
type Sketch struct {
	capacity  int
	seed      uint64
	levelHash hashing.Pairwise
	printHash hashing.Pairwise
	printMod  uint64
	z         int
	// buckets holds one fingerprint<<8 | level entry per retained
	// fingerprint, strictly ascending by fingerprint, every level at
	// least z. The level is the highest seen for the fingerprint (a
	// fingerprint collision keeps the higher level, which is the
	// standard small-bias behaviour).
	buckets []uint64
}

// New returns a BJKST sketch with the given bucket capacity
// (c = Θ(1/ε²)). Fingerprints are drawn from a range of ~c³ values so
// collisions stay rare, as in the original analysis. capacity must be
// ≥ 1 and small enough that c³ fits in 32 bits (capacity ≤ 1290 keeps
// fingerprints within uint32; larger capacities clamp the range to
// 2^32, which only reduces the collision bias headroom).
func New(capacity int, seed uint64) *Sketch {
	if capacity < 1 {
		panic(fmt.Sprintf("bjkst: capacity must be >= 1, got %d", capacity))
	}
	sm := hashing.NewSplitMix64(seed)
	return &Sketch{
		capacity:  capacity,
		seed:      seed,
		levelHash: hashing.NewPairwise(sm.Next()),
		printHash: hashing.NewPairwise(sm.Next()),
		printMod:  fingerprintMod(capacity),
		buckets:   make([]uint64, 0, capacity+1),
	}
}

// fingerprintMod returns the fingerprint range for a capacity: ~c³ to
// keep collisions rare (the original analysis), clamped to [64, 2^32].
// The clamp also guards the c³ overflow for capacities above 2^21.
func fingerprintMod(capacity int) uint64 {
	c := uint64(capacity)
	if c == 0 || c > 1<<21 { // c³ would exceed (or overflow past) 2^63
		return 1 << 32
	}
	mod := c * c * c
	switch {
	case mod > 1<<32:
		return 1 << 32
	case mod < 64:
		return 64
	default:
		return mod
	}
}

// level is a bucket entry's level.
func level(e uint64) int { return int(uint8(e)) }

// Process observes one occurrence of label.
func (s *Sketch) Process(label uint64) {
	lvl := hashing.GeometricLevel(s.levelHash.Hash(label))
	if lvl < s.z {
		return
	}
	fp := s.printHash.Hash(label) % s.printMod
	e := fp<<8 | uint64(lvl)
	i, _ := slices.BinarySearch(s.buckets, fp<<8)
	if i < len(s.buckets) && s.buckets[i]>>8 == fp {
		s.buckets[i] = max(s.buckets[i], e)
		return
	}
	s.buckets = slices.Insert(s.buckets, i, e)
	for len(s.buckets) > s.capacity && s.z < hashing.MaxLevel {
		s.z++
		s.prune()
	}
}

// prune drops the buckets below level z, keeping the rest in order.
func (s *Sketch) prune() {
	kept := s.buckets[:0]
	for _, e := range s.buckets {
		if level(e) >= s.z {
			kept = append(kept, e)
		}
	}
	s.buckets = kept
}

// Estimate returns |buckets| · 2^z.
func (s *Sketch) Estimate() float64 {
	return float64(len(s.buckets)) * float64(uint64(1)<<uint(s.z))
}

// Merge folds other into s, leaving s as if it had processed both
// streams. Both sketches must share capacity and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *bjkst.Sketch", ErrMismatch, o)
	}
	if other == nil || s.capacity != other.capacity || s.seed != other.seed {
		return ErrMismatch
	}
	// Count the union's fingerprints per level, a shared one at its
	// higher level, then raise z from the larger of the two until at
	// most capacity of them survive.
	var perLevel [hashing.MaxLevel + 1]int
	a, b := s.buckets, other.buckets
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || (i < len(a) && a[i]>>8 < b[j]>>8):
			perLevel[level(a[i])]++
			i++
		case i == len(a) || b[j]>>8 < a[i]>>8:
			perLevel[level(b[j])]++
			j++
		default:
			perLevel[level(max(a[i], b[j]))]++
			i, j = i+1, j+1
		}
	}
	z, n := max(s.z, other.z), 0
	for _, c := range perLevel[z:] {
		n += c
	}
	for n > s.capacity && z < hashing.MaxLevel {
		n -= perLevel[z]
		z++
	}
	s.z = z
	s.prune()
	// Merge s's survivors with other's back to front into
	// s.buckets[:n]. Every survivor of s is in the result, so the write
	// index never falls below the read index into s's own entries and
	// no unread entry is overwritten.
	if n > cap(s.buckets) {
		// One allocation in every build: slices.Grow appends a make,
		// which allocates twice under the race detector.
		grown := make([]uint64, len(s.buckets), n)
		copy(grown, s.buckets)
		s.buckets = grown
	}
	a, out := s.buckets, s.buckets[:n]
	i, j := len(a)-1, len(b)-1
	for w := n - 1; w >= 0; w-- {
		for j >= 0 && level(b[j]) < z {
			j--
		}
		switch {
		case j < 0 || (i >= 0 && a[i]>>8 > b[j]>>8):
			out[w], i = a[i], i-1
		case i < 0 || b[j]>>8 > a[i]>>8:
			out[w], j = b[j], j-1
		default:
			out[w], i, j = max(a[i], b[j]), i-1, j-1
		}
	}
	s.buckets = out
	return nil
}

// SizeBytes returns the sketch payload size: 5 bytes per bucket
// (4-byte fingerprint + 1-byte level) — the bit saving over storing
// whole labels that BJKST exists for.
func (s *Sketch) SizeBytes() int { return 5 * len(s.buckets) }
