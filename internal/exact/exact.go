// Package exact provides exact (linear-space) computation of the
// aggregates the sketches estimate: distinct counts, predicate counts,
// and duplicate-insensitive sums over the union of streams. It is the
// ground truth for every experiment and also serves as the "ship the
// whole distinct set" communication baseline (E6): its SizeBytes is
// what a party would have to send for the coordinator to compute the
// union exactly.
package exact

import (
	"fmt"

	"repro/internal/sketch"
)

// Distinct counts distinct labels exactly, optionally carrying each
// label's fixed value for SumDistinct. The zero value is not usable;
// construct with NewDistinct.
type Distinct struct {
	values map[uint64]uint64
	sum    uint64
}

// NewDistinct returns an empty exact counter.
func NewDistinct() *Distinct {
	return &Distinct{values: make(map[uint64]uint64)}
}

// Process observes one occurrence of label (value 1).
func (d *Distinct) Process(label uint64) {
	d.ProcessWeighted(label, 1)
}

// ProcessWeighted observes label with its fixed value; repeats are
// ignored (first value wins, matching the sketches' contract).
func (d *Distinct) ProcessWeighted(label, value uint64) {
	if _, ok := d.values[label]; ok {
		return
	}
	d.values[label] = value
	d.sum += value
}

// Count returns the exact number of distinct labels.
func (d *Distinct) Count() int { return len(d.values) }

// Sum returns the exact sum of values over distinct labels.
func (d *Distinct) Sum() uint64 { return d.sum }

// CountWhere returns the exact number of distinct labels satisfying
// pred.
func (d *Distinct) CountWhere(pred func(label uint64) bool) int {
	n := 0
	for label := range d.values {
		if pred(label) {
			n++
		}
	}
	return n
}

// SumWhere returns the exact sum of values over distinct labels
// satisfying pred.
func (d *Distinct) SumWhere(pred func(label uint64) bool) uint64 {
	var s uint64
	for label, v := range d.values {
		if pred(label) {
			s += v
		}
	}
	return s
}

// Merge folds other into d (set union; first value wins on overlap,
// and the fixed-value contract makes overlapping values equal anyway).
// other must be another *Distinct; the error return exists for the
// sketch.Sketch contract — same-kind merges cannot fail, since exact
// sets have no configuration to disagree on.
func (d *Distinct) Merge(o sketch.Sketch) error {
	other, ok := o.(*Distinct)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *exact.Distinct", sketch.ErrMismatch, o)
	}
	if other == nil {
		return nil
	}
	for label, v := range other.values {
		d.ProcessWeighted(label, v)
	}
	return nil
}

// Contains reports whether label has been observed.
func (d *Distinct) Contains(label uint64) bool {
	_, ok := d.values[label]
	return ok
}

// Value returns the stored value for label and whether it exists.
func (d *Distinct) Value(label uint64) (uint64, bool) {
	v, ok := d.values[label]
	return v, ok
}

// SizeBytes is the minimal message size for exact union computation:
// 8 bytes per distinct label (values excluded, matching the
// distinct-count communication baseline in E6).
func (d *Distinct) SizeBytes() int { return 8 * len(d.values) }

// Reset clears the counter.
func (d *Distinct) Reset() {
	clear(d.values)
	d.sum = 0
}

// String implements fmt.Stringer.
func (d *Distinct) String() string {
	return fmt.Sprintf("exact.Distinct{count: %d, sum: %d}", len(d.values), d.sum)
}
