// Package unionstream is the public API of this repository: an
// implementation of Gibbons & Tirthapura's coordinated sampling scheme
// for estimating simple functions — distinct counts, predicate counts,
// and duplicate-insensitive sums — over the set union of one or more
// data streams (SPAA 2001).
//
// # Usage model
//
// Create one Sketch per stream/party, all with the same Options
// (in particular the same Seed — that is the only coordination the
// scheme needs). Feed each party its own stream with Add/AddValued.
// When the streams end, serialize the sketches with MarshalBinary,
// ship them anywhere, and Merge them; the merged sketch answers
// queries about the union with relative error ε and failure
// probability δ, using O(log(1/δ)/ε²·log m) bits of space and
// communication per party.
//
//	opts := unionstream.Options{Epsilon: 0.05, Delta: 0.01, Seed: 42}
//	a, _ := unionstream.New(opts) // party A
//	b, _ := unionstream.New(opts) // party B
//	... a.Add(flowID) on A's stream, b.Add(flowID) on B's ...
//	_ = a.Merge(b)
//	fmt.Println(a.DistinctCount()) // distinct flows across both links
//
// Duplicates within or across streams never distort the answers: the
// sketch state is a pure function of the distinct label set.
package unionstream

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/sketch"
)

// Errors returned by this package. ErrMismatch wraps merge/decode
// incompatibilities; ErrCorrupt wraps malformed encodings.
var (
	ErrMismatch = core.ErrMismatch
	ErrCorrupt  = core.ErrCorrupt
)

// Options configures a Sketch. The zero value is usable: it targets
// ε = 0.05, δ = 0.01, seed 0.
type Options struct {
	// Epsilon is the target relative error in (0, 1]; 0 means 0.05.
	Epsilon float64
	// Delta is the target failure probability in (0, 1); 0 means 0.01.
	Delta float64
	// Seed is the shared coordination seed. All sketches that will
	// ever be merged must use the same seed.
	Seed uint64
	// Capacity overrides the per-copy sample capacity derived from
	// Epsilon (advanced; 0 = derive).
	Capacity int
	// Copies overrides the number of independent copies derived from
	// Delta (advanced; 0 = derive).
	Copies int
}

// resolve fills defaults and validates.
func (o Options) resolve() (core.EstimatorConfig, error) {
	eps := o.Epsilon
	if eps == 0 {
		eps = 0.05
	}
	if eps < 0 || eps > 1 {
		return core.EstimatorConfig{}, fmt.Errorf("unionstream: Epsilon %v outside (0, 1]", o.Epsilon)
	}
	delta := o.Delta
	if delta == 0 {
		delta = 0.01
	}
	if delta < 0 || delta >= 1 {
		return core.EstimatorConfig{}, fmt.Errorf("unionstream: Delta %v outside (0, 1)", o.Delta)
	}
	cfg := core.EstimatorConfig{
		Capacity: o.Capacity,
		Copies:   o.Copies,
		Seed:     o.Seed,
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = core.CapacityForEpsilon(eps)
	}
	if cfg.Capacity < 1 {
		return core.EstimatorConfig{}, fmt.Errorf("unionstream: Capacity %d must be positive", o.Capacity)
	}
	if cfg.Copies == 0 {
		cfg.Copies = core.CopiesForDelta(delta)
	}
	if cfg.Copies < 1 {
		return core.EstimatorConfig{}, fmt.Errorf("unionstream: Copies %d must be positive", o.Copies)
	}
	return cfg, nil
}

// Sketch estimates simple functions on the union of data streams. It
// is not safe for concurrent use; in the distributed model each party
// owns its sketch exclusively.
type Sketch struct {
	est *core.Estimator
}

// New returns an empty sketch for the given options.
func New(opts Options) (*Sketch, error) {
	cfg, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	return &Sketch{est: core.NewEstimator(cfg)}, nil
}

// Add observes one occurrence of a 64-bit label.
func (s *Sketch) Add(label uint64) {
	s.est.Process(label)
}

// AddValued observes a label carrying a fixed integer value, for
// SumDistinct queries. Every occurrence of a label must carry the same
// value; the first retained value wins.
func (s *Sketch) AddValued(label, value uint64) {
	s.est.ProcessWeighted(label, value)
}

// AddBytes observes a byte-string label, mapped to uint64 with FNV-1a.
// The mapping is stable across processes, preserving coordination.
// (FNV collisions, ~n²/2⁶⁴, are negligible at sketchable scales.)
func (s *Sketch) AddBytes(label []byte) {
	h := fnv.New64a()
	h.Write(label)
	s.est.Process(h.Sum64())
}

// AddString observes a string label; see AddBytes.
func (s *Sketch) AddString(label string) {
	h := fnv.New64a()
	h.Write([]byte(label))
	s.est.Process(h.Sum64())
}

// Merge folds other into s. Both sketches must have been created with
// identical resolved options (same seed, capacity, copies); otherwise
// Merge returns an error wrapping ErrMismatch and leaves s unchanged.
// After a successful merge, s answers queries over the union of both
// streams.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("unionstream: merge with nil sketch: %w", ErrMismatch)
	}
	return s.est.Merge(other.est)
}

// DistinctCount estimates the number of distinct labels in the union
// of all streams merged into s.
func (s *Sketch) DistinctCount() float64 {
	return s.est.EstimateDistinct()
}

// SumDistinct estimates the sum of values over distinct labels.
func (s *Sketch) SumDistinct() float64 {
	return s.est.EstimateSum()
}

// CountWhere estimates the number of distinct labels satisfying pred.
// The error guarantee degrades with the predicate's selectivity, as
// for any sample-based estimator.
func (s *Sketch) CountWhere(pred func(label uint64) bool) float64 {
	return s.est.EstimateCountWhere(pred)
}

// SumWhere estimates the sum of values over distinct labels satisfying
// pred.
func (s *Sketch) SumWhere(pred func(label uint64) bool) float64 {
	return s.est.EstimateSumWhere(pred)
}

// MarshalBinary encodes the sketch for transmission — this is the one
// message a party sends in the paper's model.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.est.MarshalBinary()
}

// Envelope encodes the sketch as a self-describing registry envelope
// (kind "gt"), the format unionstreamd absorbs; DecodeBackend opens
// it. MarshalBinary remains the bare estimator encoding.
func (s *Sketch) Envelope() ([]byte, error) {
	return sketch.Envelope(s.est)
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing s's state.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	var e core.Estimator
	if err := e.UnmarshalBinary(data); err != nil {
		return err
	}
	s.est = &e
	return nil
}

// Decode decodes a transmitted sketch into a fresh value.
func Decode(data []byte) (*Sketch, error) {
	s := &Sketch{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeEnvelope decodes a registry envelope produced by Envelope. The
// envelope must hold a "gt" sketch; use DecodeBackend to open
// envelopes of any kind.
func DecodeEnvelope(data []byte) (*Sketch, error) {
	sk, err := sketch.Open(data)
	if err != nil {
		return nil, err
	}
	est, ok := sk.(*core.Estimator)
	if !ok {
		return nil, fmt.Errorf("unionstream: envelope holds a %q sketch, not the paper's estimator: %w",
			sk.Kind(), ErrMismatch)
	}
	return &Sketch{est: est}, nil
}

// SizeBytes returns the wire size of the sketch: the per-party
// communication cost.
func (s *Sketch) SizeBytes() int { return s.est.SizeBytes() }

// Reset clears the sketch, keeping its configuration (and hence its
// coordination seed).
func (s *Sketch) Reset() { s.est.Reset() }

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch { return &Sketch{est: s.est.Clone()} }

// Epsilon returns the per-copy relative-error target implied by the
// sketch's capacity.
func (s *Sketch) Epsilon() float64 {
	return core.EpsilonForCapacity(s.est.Config().Capacity)
}

// Copies returns the number of independent sampler copies (the
// δ-amplification factor).
func (s *Sketch) Copies() int { return s.est.Copies() }

// IsMismatch reports whether err indicates incompatible sketches —
// from Sketch.Merge or Backend.Merge of any kind.
func IsMismatch(err error) bool { return errors.Is(err, sketch.ErrMismatch) }

// Set operations between two coordinated sketches — the extension
// direction this paper's successors (theta/KMV sketches) made
// standard. All three require the sketches to share options
// (ErrMismatch otherwise) and leave both operands unchanged.

// IntersectionCount estimates the number of distinct labels common to
// both sketched streams. The guarantee degrades when the intersection
// is much smaller than either stream (the selectivity effect, E9).
func (s *Sketch) IntersectionCount(other *Sketch) (float64, error) {
	if other == nil {
		return 0, fmt.Errorf("unionstream: intersection with nil sketch: %w", ErrMismatch)
	}
	return s.est.EstimateIntersection(other.est)
}

// DifferenceCount estimates the number of distinct labels seen by s's
// stream but not other's.
func (s *Sketch) DifferenceCount(other *Sketch) (float64, error) {
	if other == nil {
		return 0, fmt.Errorf("unionstream: difference with nil sketch: %w", ErrMismatch)
	}
	return s.est.EstimateDifference(other.est)
}

// Jaccard estimates the Jaccard similarity of the two sketched
// distinct label sets, in [0, 1].
func (s *Sketch) Jaccard(other *Sketch) (float64, error) {
	if other == nil {
		return 0, fmt.Errorf("unionstream: jaccard with nil sketch: %w", ErrMismatch)
	}
	return s.est.EstimateJaccard(other.est)
}
