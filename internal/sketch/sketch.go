// Package sketch defines the repository's unified mergeable-sketch
// abstraction. Every summary in this repository — the paper's
// coordinated sampler, the FM/AMS/BJKST/KMV/LogLog baselines, the
// sliding-window extension, and the exact ground truth — shares one
// algebra: process labels, merge commutatively/associatively/
// idempotently with a compatibly-configured peer, estimate. This
// package names that algebra (the Sketch interface), assigns each
// implementation a stable Kind tag in a process-wide registry, and
// wraps every encoding in a self-describing envelope (kind + format
// version + canonical config digest) so the networked coordinator,
// the simulator, and the public API can carry any kind without
// per-algorithm special cases.
//
// Implementations register themselves from an init function in their
// own package; importing repro/internal/sketch/kinds (blank) pulls in
// every kind the repository ships. The conformance suite in
// sketchtest asserts the merge algebra for each registered kind.
package sketch

import (
	"errors"
	"fmt"
)

// Kind is the stable one-byte tag identifying a sketch algorithm on
// the wire. Values are part of the envelope format: never renumber or
// reuse them.
type Kind uint8

const (
	// KindGT is the paper's coordinated sampler (core.Estimator).
	KindGT Kind = 1
	// KindFM is the Flajolet–Martin / PCSA baseline.
	KindFM Kind = 2
	// KindAMS is the Alon–Matias–Szegedy F0 baseline.
	KindAMS Kind = 3
	// KindBJKST is the BJKST distinct-elements baseline.
	KindBJKST Kind = 4
	// KindKMV is the K-minimum-values / bottom-k baseline.
	KindKMV Kind = 5
	// KindLogLog is the LogLog/HLL-style baseline.
	KindLogLog Kind = 6
	// KindWindow is the sliding-window coordinated sampler.
	KindWindow Kind = 7
	// KindExact is the exact (linear-space) distinct set.
	KindExact Kind = 8
)

// String implements fmt.Stringer: the registered name when known, a
// numeric form otherwise.
func (k Kind) String() string {
	if info, ok := Lookup(k); ok {
		return info.Name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Sketch is the mergeable-summary algebra every registered kind
// implements. Merge must be commutative, associative, and idempotent
// across compatibly-configured sketches (equal Digest), and must
// refuse anything else with an error wrapping ErrMismatch. Marshal
// encodings must be canonical: equal sketch state encodes to equal
// bytes, which is what lets the server assert concurrent absorbs are
// bit-identical to serial ones.
type Sketch interface {
	// Process observes one occurrence of label (unit value).
	Process(label uint64)
	// Estimate returns the sketch's primary estimate — the distinct
	// count of the observed multiset union.
	Estimate() float64
	// Merge folds other into the receiver. other must be the same
	// concrete kind with the same configuration digest; anything else
	// returns an error wrapping ErrMismatch and leaves the receiver
	// unchanged.
	Merge(other Sketch) error
	// MarshalBinary returns the kind's canonical payload encoding
	// (without the envelope header; see Envelope).
	MarshalBinary() ([]byte, error)
	// Kind returns the sketch's registered kind tag.
	Kind() Kind
	// Seed returns the coordination seed (0 for seedless kinds).
	Seed() uint64
	// Digest returns the canonical configuration digest: equal exactly
	// when two sketches of the same kind are merge-compatible. The
	// envelope carries it so a decoder can refuse a mismatched payload
	// before interpreting it, and the server keys merge groups on it.
	Digest() uint64
}

// Run is a payload a kind has staged for merging (KindInfo.Stage): it
// passed every check the kind's decoder makes, and it is held in the
// form the kind merges it in rather than as a sketch.
type Run interface {
	// Kind, Seed and Digest report what the decoded sketch would.
	Kind() Kind
	Seed() uint64
	Digest() uint64
	// MergeInto folds the run into dst, leaving dst byte-identical to
	// dst.Merge of the decoded payload. A dst of another kind or
	// configuration is refused with an error wrapping ErrMismatch and
	// left unchanged.
	MergeInto(dst Sketch) error
}

// Weighted is the optional capability of kinds that track a fixed
// per-label value (for duplicate-insensitive sums).
type Weighted interface {
	ProcessWeighted(label, value uint64)
}

// Summer is the optional capability of kinds that can estimate the
// duplicate-insensitive sum of per-label values.
type Summer interface {
	EstimateSum() float64
}

// PredicateEstimator is the optional capability of kinds that can
// estimate predicate-restricted counts and sums (the paper's
// CountWhere/SumWhere queries).
type PredicateEstimator interface {
	EstimateCountWhere(pred func(label uint64) bool) float64
	EstimateSumWhere(pred func(label uint64) bool) float64
}

// Describer is the optional capability of kinds that expose their
// configuration parameters for introspection surfaces like /statsz.
// Values must be JSON-encodable.
type Describer interface {
	Describe() map[string]any
}

// SetAlgebra is the optional capability of kinds whose coordinated
// samples answer pairwise set-expression estimates against a sibling
// sketch of the same kind and configuration (equal Digest): the
// estimators Cohen's coordinated-sample line and the MTS
// set-expression sketch build on. Every method must refuse a sketch
// of another kind, seed, or configuration with an error wrapping
// ErrMismatch — uncoordinated sketches share no sample space, so
// "their intersection" is not a well-posed question. Kinds without
// this capability are gated at query time exactly like Summer.
type SetAlgebra interface {
	// SetIntersect estimates |A ∩ B| of the two sketched label sets.
	SetIntersect(other Sketch) (float64, error)
	// SetDiff estimates |A \ B| (labels in the receiver's stream but
	// not in other's).
	SetDiff(other Sketch) (float64, error)
	// SetJaccard estimates the Jaccard similarity |A∩B| / |A∪B|.
	SetJaccard(other Sketch) (float64, error)
}

// SetCombiner is the optional capability of kinds whose set
// operations close over the sketch domain: the intersection or
// difference of two coordinated samples is itself a valid coordinated
// sample of the result set, so set operators can nest — the property
// a recursive expression evaluator needs for interior nodes like
// (A ∪ B) ∩ C. The returned sketch must estimate exactly what the
// corresponding SetAlgebra scalar would report, and the receiver and
// other must be left unchanged. Scalar-only kinds (e.g. bottom-k,
// whose k-minimum set of an intersection is not derivable) implement
// SetAlgebra alone and can only answer set operators at the root.
type SetCombiner interface {
	// CombineIntersect returns a sketch of A ∩ B.
	CombineIntersect(other Sketch) (Sketch, error)
	// CombineDiff returns a sketch of A \ B.
	CombineDiff(other Sketch) (Sketch, error)
}

// Accuracy is the optional capability of kinds that can state their
// configured relative standard error for the primary distinct-count
// estimate. Query surfaces use it for per-node error-bound reporting;
// derived bounds (intersections, differences) degrade it by the
// observed selectivity.
type Accuracy interface {
	// RelativeStdErr returns the configured relative standard error
	// (e.g. ε for the paper's sampler, 1/√(k-2) for bottom-k).
	RelativeStdErr() float64
}

// Sentinel errors every kind funnels its failures through, so callers
// can classify without knowing the concrete package: errors.Is(err,
// sketch.ErrMismatch) works for a core, fm, or window mismatch alike.
var (
	// ErrMismatch reports a merge between incompatibly-configured
	// sketches (different kind, seed, dimensions, or hash family).
	ErrMismatch = errors.New("sketch: configuration mismatch")
	// ErrCorrupt reports an encoding that failed validation.
	ErrCorrupt = errors.New("sketch: corrupt encoding")
	// ErrUnknownKind reports an envelope whose kind tag has no
	// registered decoder in this process.
	ErrUnknownKind = errors.New("sketch: unknown kind")
)

// ConfigDigest hashes a kind tag and its configuration fields into
// the canonical 64-bit digest carried by envelopes. It is FNV-1a over
// the kind byte followed by each field in little-endian order; two
// sketches are merge-compatible exactly when their kinds and every
// config field agree, which the digest captures (up to hash
// collisions, which at 64 bits never matter for the handful of
// configurations a deployment runs).
func ConfigDigest(kind Kind, fields ...uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(kind)
	h *= prime64
	for _, f := range fields {
		for i := 0; i < 8; i++ {
			h ^= (f >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}
