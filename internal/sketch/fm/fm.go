// Package fm implements Flajolet–Martin probabilistic counting with
// stochastic averaging (PCSA, 1985) — the principal prior art the
// paper compares its coordinated sampling scheme against.
//
// PCSA hashes every item to one of m bitmaps and sets the bit at the
// item's geometric level; the estimate combines the position of the
// lowest unset bit across bitmaps. Its analysis assumes fully random
// hash functions; run with the pairwise functions available in small
// space, its accuracy degrades — one of the motivations the paper
// gives for its sampling-based scheme (experiment E1 measures this).
// Bitmaps merge by OR, so FM sketches also support distributed unions
// when seeds are shared.
package fm

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// phi is the Flajolet–Martin correction constant.
const phi = 0.77351

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("fm: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is a PCSA distinct-count sketch. Construct with New or
// NewWeak.
type Sketch struct {
	seed    uint64
	weak    bool
	numMaps int
	// bucketHash and levelHash are derived from seed by the first
	// Process, the only method that hashes: a sketch opened from an
	// envelope merges, estimates and re-encodes without them.
	bucketHash hashing.Family
	levelHash  hashing.Family
	bitmaps    []uint64
}

// New returns a PCSA sketch with numMaps bitmaps (the space/accuracy
// knob; standard error ≈ 0.78/√numMaps under ideal hashing). numMaps
// must be ≥ 1. Equal (numMaps, seed) pairs produce mergeable sketches.
//
// The sketch hashes with simple tabulation, which behaves close to the
// fully random functions FM's analysis assumes. That randomness budget
// is exactly what the paper's scheme avoids needing: see NewWeak.
func New(numMaps int, seed uint64) *Sketch {
	return newSketch(numMaps, seed, false)
}

// NewWeak returns a PCSA sketch hashed with pairwise-independent
// functions only — the same independence budget the GT sampler runs
// on. FM's estimator is biased under such weak hashing on structured
// key sets (experiment E1 quantifies this); NewWeak exists to
// demonstrate the gap the paper's abstract claims.
func NewWeak(numMaps int, seed uint64) *Sketch {
	return newSketch(numMaps, seed, true)
}

func newSketch(numMaps int, seed uint64, weak bool) *Sketch {
	if numMaps < 1 {
		panic(fmt.Sprintf("fm: numMaps must be >= 1, got %d", numMaps))
	}
	return &Sketch{seed: seed, weak: weak, numMaps: numMaps, bitmaps: make([]uint64, numMaps)}
}

// buildHashes derives the bucket and level hash functions from the
// seed.
func (s *Sketch) buildHashes() {
	sm := hashing.NewSplitMix64(s.seed)
	if s.weak {
		s.bucketHash = hashing.NewPairwise(sm.Next())
		s.levelHash = hashing.NewPairwise(sm.Next())
	} else {
		s.bucketHash = hashing.NewTabulation(sm.Next())
		s.levelHash = hashing.NewTabulation(sm.Next())
	}
}

// Process observes one occurrence of label.
func (s *Sketch) Process(label uint64) {
	if s.bucketHash == nil {
		s.buildHashes()
	}
	bucket := s.bucketHash.Hash(label) % uint64(s.numMaps)
	lvl := hashing.GeometricLevel(s.levelHash.Hash(label))
	s.bitmaps[bucket] |= 1 << uint(lvl)
}

// Estimate returns the distinct-count estimate m/φ · 2^(mean lowest
// unset bit).
func (s *Sketch) Estimate() float64 {
	sum := 0
	for _, bm := range s.bitmaps {
		sum += bits.TrailingZeros64(^bm) // index of lowest zero bit
	}
	mean := float64(sum) / float64(s.numMaps)
	return float64(s.numMaps) / phi * math.Pow(2, mean)
}

// Merge ORs other into s; afterwards s estimates the union of the two
// streams. Both sketches must share numMaps and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *fm.Sketch", ErrMismatch, o)
	}
	if other == nil || s.numMaps != other.numMaps || s.seed != other.seed || s.weak != other.weak {
		return ErrMismatch
	}
	for i := range s.bitmaps {
		s.bitmaps[i] |= other.bitmaps[i]
	}
	return nil
}

// SizeBytes returns the sketch's payload size: 8 bytes per bitmap.
// (Configuration metadata is excluded, mirroring how the other
// sketches are charged.)
func (s *Sketch) SizeBytes() int { return 8 * s.numMaps }

// NumMaps returns the number of bitmaps.
func (s *Sketch) NumMaps() int { return s.numMaps }

// Reset clears the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	for i := range s.bitmaps {
		s.bitmaps[i] = 0
	}
}

// NumMapsForEpsilon returns the bitmap count targeting relative error
// eps under PCSA's ideal-hash analysis (stderr ≈ 0.78/√m).
func NumMapsForEpsilon(eps float64) int {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("fm: epsilon must be in (0, 1], got %v", eps))
	}
	m := int(0.78*0.78/(eps*eps) + 0.5)
	if m < 2 {
		m = 2
	}
	return m
}
