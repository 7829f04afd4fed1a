// Package ams implements the Alon–Matias–Szegedy F0 estimator (STOC
// 1996): track the maximum geometric level R seen under a
// pairwise-independent hash and output 2^(R+1/2).
//
// AMS needs only pairwise independence and O(log m) bits per copy, but
// it is a *constant-factor* estimator: with constant probability the
// output is within a factor of c of the truth, and no amount of
// repetition tightens the factor to 1±ε. This is exactly the gap the
// paper's abstract calls out — its coordinated sampling gets a true
// (ε, δ) guarantee from the same pairwise hashing — and experiment E1
// shows it: AMS's error plateaus near a constant while the GT sampler's
// error shrinks with capacity.
//
// Copies merge by taking the per-copy maximum level, so AMS supports
// distributed unions when seeds are shared.
package ams

import (
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("ams: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is a multi-copy AMS F0 estimator. Construct with New.
type Sketch struct {
	seed   uint64
	hashes []hashing.Pairwise
	maxLvl []int8 // -1 = copy has seen nothing
}

// New returns an AMS sketch with the given number of independent
// copies; the estimate is the median across copies. copies must be ≥ 1.
func New(copies int, seed uint64) *Sketch {
	if copies < 1 {
		panic(fmt.Sprintf("ams: copies must be >= 1, got %d", copies))
	}
	sm := hashing.NewSplitMix64(seed)
	s := &Sketch{
		seed:   seed,
		hashes: make([]hashing.Pairwise, copies),
		maxLvl: make([]int8, copies),
	}
	for i := range s.hashes {
		s.hashes[i] = hashing.NewPairwise(sm.Next())
		s.maxLvl[i] = -1
	}
	return s
}

// Process observes one occurrence of label.
func (s *Sketch) Process(label uint64) {
	for i, h := range s.hashes {
		lvl := int8(hashing.GeometricLevel(h.Hash(label)))
		if lvl > s.maxLvl[i] {
			s.maxLvl[i] = lvl
		}
	}
}

// Estimate returns the median across copies of 2^(R+1/2), or 0 for an
// empty sketch.
func (s *Sketch) Estimate() float64 {
	ests := make([]float64, len(s.maxLvl))
	for i, r := range s.maxLvl {
		if r < 0 {
			ests[i] = 0
			continue
		}
		ests[i] = math.Exp2(float64(r) + 0.5)
	}
	return median(ests)
}

// Merge folds other into s by per-copy maximum. Both sketches must
// share copy count and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *ams.Sketch", ErrMismatch, o)
	}
	if other == nil || len(s.maxLvl) != len(other.maxLvl) || s.seed != other.seed {
		return ErrMismatch
	}
	for i := range s.maxLvl {
		if other.maxLvl[i] > s.maxLvl[i] {
			s.maxLvl[i] = other.maxLvl[i]
		}
	}
	return nil
}

func median(vals []float64) float64 {
	// Insertion sort a copy; copy counts are small.
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
