package core

import (
	"fmt"

	"repro/internal/sketch"
)

// stagedRun is gt's sketch.Run: a payload staged for merging into a
// group (sketch.Stage), validated exactly as UnmarshalBinary validates
// it and held as the entries the merge will walk rather than as
// tables. One slab holds, per copy, a header slot — label the copy's
// entry count, weight its seed, lv its level — followed by that copy's
// entries in label order, each with its level cached as in a table.
// The slab is sized from the declared counts, so staging places,
// zeroes and walks no table.
type stagedRun struct {
	cfg  EstimatorConfig
	slab []entry
}

// stageRun validates an estimator encoding as UnmarshalBinary does,
// through the same header check and entry scanner, and returns it as a
// staged run. It refuses with ErrCorrupt exactly where UnmarshalBinary
// does.
func stageRun(data []byte) (*stagedRun, error) {
	h, err := parseEstimator(data)
	if err != nil {
		return nil, err
	}
	r := &stagedRun{cfg: h.cfg, slab: make([]entry, h.cfg.Copies+h.entries)}
	rest := r.slab
	for i := 0; i < h.cfg.Copies; i++ {
		ch, body, _ := h.copies.nextCopy(i) // parseEstimator parsed these bytes without error
		// The copy's level hash and declared level, holding no table.
		var c Sampler
		c.init(ch.cfg, ch.level, nil)
		rest[0] = entry{label: uint64(ch.count), weight: ch.cfg.Seed, lv: uint8(ch.level)}
		if err := c.scanEntries(body, ch.count, rest[1:1+ch.count]); err != nil {
			return nil, fmt.Errorf("copy %d: %w", i, err)
		}
		rest = rest[1+ch.count:]
	}
	return r, nil
}

// Kind implements sketch.Run.
func (r *stagedRun) Kind() sketch.Kind { return sketch.KindGT }

// Seed implements sketch.Run: the master coordination seed.
func (r *stagedRun) Seed() uint64 { return r.cfg.Seed }

// Digest implements sketch.Run: the digest of the estimator the run
// was staged from.
func (r *stagedRun) Digest() uint64 { return r.cfg.digest() }

// MergeInto folds the run into dst, which must be an *Estimator of the
// run's configuration (ErrMismatch otherwise, leaving dst unchanged).
// It is Merge with the run standing in for the decoded estimator: each
// copy goes through the same raiseTo and add, so dst ends
// byte-identical to dst.Merge of the decoded payload.
func (r *stagedRun) MergeInto(dst sketch.Sketch) error {
	e, ok := dst.(*Estimator)
	if !ok || e == nil {
		return fmt.Errorf("%w: cannot merge a gt run into %T", ErrMismatch, dst)
	}
	if e.cfg != r.cfg {
		return fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, e.cfg, r.cfg)
	}
	// Validate every copy first so a failed merge cannot leave e
	// half-updated.
	rest := r.slab
	for i := range e.copies {
		if e.copies[i].cfg.Seed != rest[0].weight {
			return fmt.Errorf("%w: copy %d seed divergence", ErrMismatch, i)
		}
		rest = rest[1+rest[0].label:]
	}
	rest = r.slab
	for i := range e.copies {
		c, n := &e.copies[i], 1+rest[0].label
		c.raiseTo(int(rest[0].lv))
		for _, x := range rest[1:n] {
			c.add(x.label, x.weight, x.lv)
		}
		rest = rest[n:]
	}
	return nil
}
