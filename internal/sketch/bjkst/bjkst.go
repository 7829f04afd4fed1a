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
	// buckets maps fingerprint -> max level seen for that fingerprint.
	// (Levels are per original item; a fingerprint collision keeps the
	// higher level, which is the standard small-bias behaviour.)
	buckets map[uint32]int8
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
		buckets:   make(map[uint32]int8, capacity+1),
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

// Process observes one occurrence of label.
func (s *Sketch) Process(label uint64) {
	lvl := int8(hashing.GeometricLevel(s.levelHash.Hash(label)))
	if int(lvl) < s.z {
		return
	}
	fp := uint32(s.printHash.Hash(label) % s.printMod)
	if old, ok := s.buckets[fp]; !ok || lvl > old {
		s.buckets[fp] = lvl
	}
	for len(s.buckets) > s.capacity && s.z < hashing.MaxLevel {
		s.z++
		for f, l := range s.buckets {
			if int(l) < s.z {
				delete(s.buckets, f)
			}
		}
	}
}

// Estimate returns |buckets| · 2^z.
func (s *Sketch) Estimate() float64 {
	return float64(len(s.buckets)) * float64(uint64(1)<<uint(s.z))
}

// Merge folds other into s. Both sketches must share capacity and
// seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *bjkst.Sketch", ErrMismatch, o)
	}
	if other == nil || s.capacity != other.capacity || s.seed != other.seed {
		return ErrMismatch
	}
	if other.z > s.z {
		s.z = other.z
		for f, l := range s.buckets {
			if int(l) < s.z {
				delete(s.buckets, f)
			}
		}
	}
	for f, l := range other.buckets {
		if int(l) < s.z {
			continue
		}
		if old, ok := s.buckets[f]; !ok || l > old {
			s.buckets[f] = l
		}
	}
	for len(s.buckets) > s.capacity && s.z < hashing.MaxLevel {
		s.z++
		for f, l := range s.buckets {
			if int(l) < s.z {
				delete(s.buckets, f)
			}
		}
	}
	return nil
}

// Level returns the current sampling level z.
func (s *Sketch) Level() int { return s.z }

// Len returns the number of retained fingerprints.
func (s *Sketch) Len() int { return len(s.buckets) }

// SizeBytes returns the sketch payload size: 5 bytes per bucket
// (4-byte fingerprint + 1-byte level) — the bit saving over storing
// whole labels that BJKST exists for.
func (s *Sketch) SizeBytes() int { return 5 * len(s.buckets) }

// Reset clears the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	s.z = 0
	clear(s.buckets)
}
