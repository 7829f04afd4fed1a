package core

import "fmt"

// Set-operation estimators over coordinated samples.
//
// These extend the paper's union estimator in the direction its
// successors (KMV/theta sketches) made standard. The key observation
// is the coordinated-sample invariant: at level L ≥ max of the two
// samplers' levels, sampler A's retained set is *exactly*
// {x ∈ distinct(A) : ℓ(x) ≥ L} — so intersecting or differencing the
// two retained sets gives a level-L coordinated sample of A∩B or A\B,
// and scaling by 2^L estimates its size. No such query is possible
// across sketches with independent seeds, which is why coordination is
// the enabling idea.

// checkCoordinated validates that two samplers share a configuration.
func checkCoordinated(a, b *Sampler) error {
	if a == nil || b == nil {
		return fmt.Errorf("%w: nil sampler", ErrMismatch)
	}
	if a.cfg.Seed != b.cfg.Seed || a.cfg.Capacity != b.cfg.Capacity || a.cfg.Family != b.cfg.Family {
		return fmt.Errorf("%w: %s vs %s", ErrMismatch, a.describe(), b.describe())
	}
	return nil
}

// A label at or above both samplers' levels has the same level in
// each (they share the hash), so membership in b's table is all a
// filtered scan of a's slots needs to ask.

// EstimateIntersection estimates |A ∩ B| for the distinct label sets
// sketched by two coordinated samplers. The effective sample for the
// intersection has expected size |A∩B|/2^L, so the error guarantee
// degrades when the intersection is much smaller than either set —
// the same selectivity effect as predicate counts (E9).
func EstimateIntersection(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	level := max(a.level, b.level)
	count := 0
	for k := range a.table {
		x := &a.table[k]
		for j, lv := range x.lv {
			if int(lv) > level && b.has(x.label[j]) {
				count++
			}
		}
	}
	return float64(count) * pow2(level), nil
}

// EstimateDifference estimates |A \ B| (labels in A's stream but not
// B's). Soundness rests on the invariant: if a label at level ≥ L is
// absent from B's sample, it is truly absent from B's stream.
func EstimateDifference(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	level := max(a.level, b.level)
	count := 0
	for k := range a.table {
		x := &a.table[k]
		for j, lv := range x.lv {
			if int(lv) > level && !b.has(x.label[j]) {
				count++
			}
		}
	}
	return float64(count) * pow2(level), nil
}

// EstimateJaccard estimates the Jaccard similarity
// |A∩B| / |A∪B| ∈ [0, 1] of the two sketched label sets. The 2^L
// scale factors cancel, so this is a pure ratio of coordinated sample
// counts.
func EstimateJaccard(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	level := max(a.level, b.level)
	inter, union := 0, 0
	for k := range a.table {
		x := &a.table[k]
		for j, lv := range x.lv {
			if int(lv) <= level {
				continue
			}
			union++
			if b.has(x.label[j]) {
				inter++
			}
		}
	}
	for k := range b.table {
		y := &b.table[k]
		for j, lv := range y.lv {
			if int(lv) > level && !a.has(y.label[j]) {
				union++
			}
		}
	}
	if union == 0 {
		return 0, nil
	}
	return float64(inter) / float64(union), nil
}

// Sketch-valued set operations. The same invariant that makes the
// scalar estimators sound makes the operations *close over the
// sampler domain*: the level-L filtered intersection (or difference)
// of two coordinated retained sets is exactly a level-L coordinated
// sample of A∩B (or A\B) under the shared hash — a valid Sampler in
// its own right, whose EstimateDistinct equals the scalar estimate.
// That closure is what lets set operators nest in query expressions.

// combineInto makes out the level-max(La,Lb) filter of a's entries
// that b holds (keepShared) or does not hold, over table: zeroed and
// tableSize(a.n) slots long, since a's entry count bounds the result.
// a and b must be coordinated.
func combineInto(out, a, b *Sampler, keepShared bool, table []bucket) {
	out.init(a.cfg, max(a.level, b.level), table)
	for k := range a.table {
		x := &a.table[k]
		for j, lv := range x.lv {
			if int(lv) > out.level && b.has(x.label[j]) == keepShared {
				out.place(x.label[j], x.weight[j], lv)
				out.n++
				out.weightSum += x.weight[j]
			}
		}
	}
}

// Estimator-level variants: medians across the paired copies.

// estimatorPairwise applies f to each coordinated copy pair and
// returns the median.
func estimatorPairwise(a, b *Estimator, f func(x, y *Sampler) (float64, error)) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("%w: nil estimator", ErrMismatch)
	}
	if a.cfg != b.cfg {
		return 0, fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, a.cfg, b.cfg)
	}
	var buf [medianStack]float64
	vals := buf[:0]
	for i := range a.copies {
		v, err := f(&a.copies[i], &b.copies[i])
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return medianInPlace(vals), nil
}

// EstimateIntersection estimates |A ∩ B| as the median over copy
// pairs; see the Sampler-level function for guarantees.
func (e *Estimator) EstimateIntersection(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateIntersection)
}

// EstimateDifference estimates |A \ B| as the median over copy pairs.
func (e *Estimator) EstimateDifference(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateDifference)
}

// EstimateJaccard estimates Jaccard similarity as the median over
// copy pairs.
func (e *Estimator) EstimateJaccard(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateJaccard)
}
