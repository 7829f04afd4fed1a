package core

import (
	"fmt"

	"repro/internal/sketch"
)

// The Estimator's registration as a set-algebra-capable kind: the
// sketch.SetAlgebra scalars delegate to the pairwise estimators in
// setops.go, and sketch.SetCombiner builds sketch-valued
// intersections/differences copy by copy — the closure property the
// recursive query evaluator needs for interior expression nodes.
// Every entry point funnels mismatches (wrong kind, diverged config)
// through sketch.ErrMismatch via the core sentinels.

// setSibling asserts other is a merge-compatible *Estimator.
func (e *Estimator) setSibling(other sketch.Sketch) (*Estimator, error) {
	o, ok := other.(*Estimator)
	if !ok {
		return nil, fmt.Errorf("%w: set algebra between *core.Estimator and %T", ErrMismatch, other)
	}
	if o == nil {
		return nil, fmt.Errorf("%w: nil estimator", ErrMismatch)
	}
	if e.cfg != o.cfg {
		return nil, fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, e.cfg, o.cfg)
	}
	return o, nil
}

// SetIntersect implements sketch.SetAlgebra.
func (e *Estimator) SetIntersect(other sketch.Sketch) (float64, error) {
	o, err := e.setSibling(other)
	if err != nil {
		return 0, err
	}
	return e.EstimateIntersection(o)
}

// SetDiff implements sketch.SetAlgebra.
func (e *Estimator) SetDiff(other sketch.Sketch) (float64, error) {
	o, err := e.setSibling(other)
	if err != nil {
		return 0, err
	}
	return e.EstimateDifference(o)
}

// SetJaccard implements sketch.SetAlgebra.
func (e *Estimator) SetJaccard(other sketch.Sketch) (float64, error) {
	o, err := e.setSibling(other)
	if err != nil {
		return 0, err
	}
	return e.EstimateJaccard(o)
}

// combineWith builds a new estimator whose copies are the paired
// coordinated copies' intersections (keepShared) or differences. One
// slab holds every copy's result table, as in NewEstimator.
func (e *Estimator) combineWith(other sketch.Sketch, keepShared bool) (sketch.Sketch, error) {
	o, err := e.setSibling(other)
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range e.copies {
		if err := checkCoordinated(&e.copies[i], &o.copies[i]); err != nil {
			return nil, err
		}
		total += tableSize(e.copies[i].n)
	}
	out := &Estimator{cfg: e.cfg, copies: make([]Sampler, len(e.copies))}
	slab := newTable(total)
	for i := range e.copies {
		size := tableSize(e.copies[i].n) / bucketSlots
		combineInto(&out.copies[i], &e.copies[i], &o.copies[i], keepShared, slab[:size:size])
		slab = slab[size:]
	}
	return out, nil
}

// CombineIntersect implements sketch.SetCombiner: the result is a
// coordinated sample of A ∩ B whose Estimate equals SetIntersect
// exactly (both are the median of the per-copy level-L counts scaled
// by 2^L).
func (e *Estimator) CombineIntersect(other sketch.Sketch) (sketch.Sketch, error) {
	return e.combineWith(other, true)
}

// CombineDiff implements sketch.SetCombiner; see CombineIntersect.
func (e *Estimator) CombineDiff(other sketch.Sketch) (sketch.Sketch, error) {
	return e.combineWith(other, false)
}

// RelativeStdErr implements sketch.Accuracy: the ε the per-copy
// capacity targets.
func (e *Estimator) RelativeStdErr() float64 {
	return EpsilonForCapacity(e.cfg.Capacity)
}
