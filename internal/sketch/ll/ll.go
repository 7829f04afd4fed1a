// Package ll implements a HyperLogLog-style register sketch
// (Durand–Flajolet LogLog 2003 / Flajolet et al. HLL 2007). It
// postdates the paper and is included as the space-efficiency frontier
// in the E4 space table: HLL spends O(log log m) bits per register
// where the GT sampler spends O(log m) bits per sample slot, at the
// price of requiring (nearly) fully random hash functions for its
// analysis — the assumption the paper set out to remove.
//
// Registers merge by max, so HLL also supports distributed unions
// with shared seeds.
package ll

import (
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("ll: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is an HLL-style distinct count sketch. Construct with New or
// NewWeak.
type Sketch struct {
	numRegs int
	seed    uint64
	weak    bool
	// regHash and levelHash are derived from seed by the first
	// Process, the only method that hashes: a sketch opened from an
	// envelope merges, estimates and re-encodes without them.
	regHash   hashing.Family
	levelHash hashing.Family
	regs      []uint8
}

// New returns a sketch with numRegs registers (standard error
// ≈ 1.04/√numRegs under ideal hashing). numRegs must be ≥ 16. The
// sketch hashes with simple tabulation, approximating the fully
// random functions HLL's analysis assumes.
func New(numRegs int, seed uint64) *Sketch {
	return newSketch(numRegs, seed, false)
}

// NewWeak returns a sketch hashed with pairwise-independent functions
// only. HLL's estimator is biased under such weak hashing on
// structured key sets; NewWeak exists for the E1/E10 experiments that
// demonstrate why the paper's pairwise-only guarantee matters.
func NewWeak(numRegs int, seed uint64) *Sketch {
	return newSketch(numRegs, seed, true)
}

func newSketch(numRegs int, seed uint64, weak bool) *Sketch {
	if numRegs < 16 {
		panic(fmt.Sprintf("ll: numRegs must be >= 16, got %d", numRegs))
	}
	return &Sketch{numRegs: numRegs, seed: seed, weak: weak, regs: make([]uint8, numRegs)}
}

// buildHashes derives the register and level hash functions from the
// seed.
func (s *Sketch) buildHashes() {
	sm := hashing.NewSplitMix64(s.seed)
	if s.weak {
		s.regHash = hashing.NewPairwise(sm.Next())
		s.levelHash = hashing.NewPairwise(sm.Next())
	} else {
		s.regHash = hashing.NewTabulation(sm.Next())
		s.levelHash = hashing.NewTabulation(sm.Next())
	}
}

// Process observes one occurrence of label.
func (s *Sketch) Process(label uint64) {
	if s.regHash == nil {
		s.buildHashes()
	}
	reg := s.regHash.Hash(label) % uint64(s.numRegs)
	rank := uint8(hashing.GeometricLevel(s.levelHash.Hash(label))) + 1
	if rank > s.regs[reg] {
		s.regs[reg] = rank
	}
}

// Estimate returns the HLL estimate with the small-range
// linear-counting correction.
func (s *Sketch) Estimate() float64 {
	m := float64(s.numRegs)
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha(s.numRegs) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

func alpha(m int) float64 {
	switch {
	case m <= 16:
		return 0.673
	case m <= 32:
		return 0.697
	case m <= 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge folds other into s by per-register maximum. Both sketches must
// share register count and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *ll.Sketch", ErrMismatch, o)
	}
	if other == nil || s.numRegs != other.numRegs || s.seed != other.seed || s.weak != other.weak {
		return ErrMismatch
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	return nil
}

// SizeBytes returns the sketch payload size: one byte per register.
func (s *Sketch) SizeBytes() int { return s.numRegs }

// NumRegisters returns the register count.
func (s *Sketch) NumRegisters() int { return s.numRegs }

// Reset clears the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	for i := range s.regs {
		s.regs[i] = 0
	}
}

// NumRegsForEpsilon returns the register count targeting relative
// error eps (stderr ≈ 1.04/√m), rounded up to ≥ 16.
func NumRegsForEpsilon(eps float64) int {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("ll: epsilon must be in (0, 1], got %v", eps))
	}
	m := int(1.04*1.04/(eps*eps) + 0.5)
	if m < 16 {
		m = 16
	}
	return m
}
