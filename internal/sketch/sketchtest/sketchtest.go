// Package sketchtest is the conformance suite every registered sketch
// kind must pass: the union algebra (merge commutativity,
// associativity, idempotence) verified on canonical bytes, envelope
// and encoding round-trips, ingest resumed on an opened sketch, and
// refusal of mismatched-configuration and cross-kind merges. Kind
// packages run it from their own tests;
// internal/sketch/conformance_test.go runs it over the whole registry
// so a kind cannot register without being held to the contract.
package sketchtest

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/sketch"
)

// conformEps is the accuracy target conformance sketches are built
// with — loose enough that every kind stays small and fast.
const conformEps = 0.25

// build returns a fresh sketch of the kind holding labels [lo, hi).
func build(tb testing.TB, info sketch.KindInfo, seed, lo, hi uint64) sketch.Sketch {
	tb.Helper()
	sk := info.New(conformEps, seed)
	for x := lo; x < hi; x++ {
		sk.Process(x)
	}
	return sk
}

// canon returns the sketch's canonical encoding.
func canon(tb testing.TB, sk sketch.Sketch) []byte {
	tb.Helper()
	b, err := sk.MarshalBinary()
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	return b
}

// clone decodes an independent copy through the registry — the same
// path a coordinator takes — so merge tests never alias state.
func clone(tb testing.TB, sk sketch.Sketch) sketch.Sketch {
	tb.Helper()
	env, err := sketch.Envelope(sk)
	if err != nil {
		tb.Fatalf("envelope: %v", err)
	}
	out, err := sketch.Open(env)
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	return out
}

// merged returns canon(clone(a) ⋃ clone(b)).
func merged(tb testing.TB, a, b sketch.Sketch) []byte {
	tb.Helper()
	dst := clone(tb, a)
	if err := dst.Merge(clone(tb, b)); err != nil {
		tb.Fatalf("merge: %v", err)
	}
	return canon(tb, dst)
}

// Conform runs the full contract for one registered kind.
func Conform(t *testing.T, info sketch.KindInfo) {
	a := build(t, info, 1, 0, 1000)
	b := build(t, info, 1, 500, 1500)
	c := build(t, info, 1, 1000, 2000)

	t.Run("identity", func(t *testing.T) {
		if a.Kind() != info.Kind {
			t.Errorf("Kind() = %v, want %v", a.Kind(), info.Kind)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("same-config sketches disagree on digest")
		}
	})

	t.Run("round-trip", func(t *testing.T) {
		enc := canon(t, a)
		dec, err := info.Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(canon(t, dec), enc) {
			t.Errorf("decode→marshal is not the identity")
		}
		if dec.Kind() != a.Kind() || dec.Seed() != a.Seed() || dec.Digest() != a.Digest() {
			t.Errorf("round-trip changed identity: kind %v/%v seed %d/%d digest %x/%x",
				dec.Kind(), a.Kind(), dec.Seed(), a.Seed(), dec.Digest(), a.Digest())
		}
	})

	t.Run("envelope-round-trip", func(t *testing.T) {
		env, err := sketch.Envelope(a)
		if err != nil {
			t.Fatal(err)
		}
		if k, d, ok := sketch.PeekHeader(env); !ok || k != info.Kind || d != a.Digest() {
			t.Errorf("PeekHeader = (%v, %016x, %v), want (%v, %016x, true)", k, d, ok, info.Kind, a.Digest())
		}
		dec, err := sketch.Open(env)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !bytes.Equal(canon(t, dec), canon(t, a)) {
			t.Errorf("envelope round-trip changed the sketch")
		}
		// Capabilities are part of the kind's registered identity: the
		// coordinator only ever holds opened sketches, so a method set
		// split across pointer and value receivers would show here as a
		// capability the fresh sketch has and the opened one lacks.
		if got, want := capabilities(dec), capabilities(a); got != want {
			t.Errorf("capabilities changed in envelope round trip: opened %v, fresh %v", got, want)
		}
	})

	t.Run("open-does-not-alias", func(t *testing.T) {
		// A coordinator reads each push into a buffer it reuses for the
		// next frame, so an opened sketch must hold no reference to the
		// envelope it was opened from.
		env, err := sketch.Envelope(a)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(env)
		dec, err := sketch.Open(env)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := range env {
			env[i] = ^env[i]
		}
		got, err := sketch.Envelope(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("overwriting the envelope changed the sketch opened from it")
		}
	})

	t.Run("resume-after-open", func(t *testing.T) {
		// An opened sketch holds only what its envelope encodes; state
		// it rebuilds on demand (hash functions, spare capacity) must
		// not change what later labels do to it.
		resumed := clone(t, a)
		for x := uint64(1000); x < 2000; x++ {
			resumed.Process(x)
		}
		if !bytes.Equal(canon(t, resumed), canon(t, build(t, info, 1, 0, 2000))) {
			t.Errorf("open→process encodes differently from processing every label directly")
		}
	})

	t.Run("merge-commutative", func(t *testing.T) {
		if !bytes.Equal(merged(t, a, b), merged(t, b, a)) {
			t.Errorf("a⋃b != b⋃a on canonical bytes")
		}
	})

	t.Run("merge-associative", func(t *testing.T) {
		ab := clone(t, a)
		if err := ab.Merge(clone(t, b)); err != nil {
			t.Fatal(err)
		}
		bc := clone(t, b)
		if err := bc.Merge(clone(t, c)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged(t, ab, c), merged(t, a, bc)) {
			t.Errorf("(a⋃b)⋃c != a⋃(b⋃c) on canonical bytes")
		}
	})

	t.Run("merge-idempotent", func(t *testing.T) {
		if !bytes.Equal(merged(t, a, a), canon(t, a)) {
			t.Errorf("a⋃a != a on canonical bytes")
		}
	})

	t.Run("staged-fold", func(t *testing.T) {
		// A coordinator stages each push and folds it into its group
		// under the group's lock. The group must end byte-identical to
		// merging the opened envelope, both when it sits below the
		// envelope's sampling level (a's 1000 labels; the fold raises
		// it) and when it sits above it.
		env, err := sketch.Envelope(a)
		if err != nil {
			t.Fatal(err)
		}
		below := build(t, info, 1, 5000, 5100)
		above := build(t, info, 1, 2000, 10000)
		for _, group := range []sketch.Sketch{below, above} {
			want := clone(t, group)
			opened, err := sketch.Open(env)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := want.Merge(opened); err != nil {
				t.Fatalf("merge: %v", err)
			}
			st, err := sketch.Stage(env)
			if err != nil {
				t.Fatalf("stage: %v", err)
			}
			got := clone(t, group)
			if err := st.MergeInto(got); err != nil {
				t.Fatalf("fold: %v", err)
			}
			if !bytes.Equal(canon(t, got), canon(t, want)) {
				t.Errorf("staged fold into a %v-estimate group differs from merging the opened envelope", group.Estimate())
			}
		}

		// A refused envelope must leave the group as it was. A flipped
		// payload byte may still decode for some kinds; Stage must then
		// accept it exactly when Open does.
		truncated := env[:len(env)-1]
		digest := bytes.Clone(env)
		digest[4] ^= 1
		payload := bytes.Clone(env)
		payload[sketch.EnvelopeHeaderSize+(len(env)-sketch.EnvelopeHeaderSize)/2] ^= 0x80
		for _, bad := range []struct {
			name       string
			env        []byte
			mustRefuse bool
		}{{"truncated", truncated, true}, {"digest flipped", digest, true}, {"payload byte flipped", payload, false}} {
			group := clone(t, below)
			before := canon(t, group)
			_, openErr := sketch.Open(bad.env)
			st, err := sketch.Stage(bad.env)
			if err == nil {
				err = st.MergeInto(group)
			}
			if (err == nil) != (openErr == nil) {
				t.Errorf("%s envelope: Open err = %v, staged fold err = %v", bad.name, openErr, err)
				continue
			}
			if err == nil {
				if bad.mustRefuse {
					t.Errorf("%s envelope accepted", bad.name)
				}
				continue
			}
			if !errors.Is(err, sketch.ErrCorrupt) {
				t.Errorf("%s envelope: err = %v, want sketch.ErrCorrupt", bad.name, err)
			}
			if !bytes.Equal(canon(t, group), before) {
				t.Errorf("%s envelope was refused but changed the group", bad.name)
			}
		}
	})

	t.Run("merge-refuses-mismatch", func(t *testing.T) {
		other := build(t, info, 2, 0, 100)
		if other.Digest() == a.Digest() {
			// Seedless, parameter-free kinds (exact) have one universal
			// configuration: there is no mismatch to refuse.
			t.Skip("kind has a single configuration")
		}
		err := clone(t, a).Merge(other)
		if !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched merge: err = %v, want sketch.ErrMismatch", err)
		}
	})

	t.Run("merge-refuses-cross-kind", func(t *testing.T) {
		for _, oi := range sketch.Kinds() {
			if oi.Kind == info.Kind {
				continue
			}
			other := build(t, oi, 1, 0, 10)
			if err := clone(t, a).Merge(other); err == nil {
				t.Errorf("merging kind %q into %q succeeded", oi.Name, info.Name)
			}
			break
		}
	})

	t.Run("set-algebra", func(t *testing.T) { conformSetAlgebra(t, info, a, b) })

	t.Run("estimate-sane", func(t *testing.T) {
		// a holds 1000 distinct labels at ε=0.25; any registered kind
		// must land within an order of magnitude (AMS is the loosest,
		// constant-factor only).
		est := clone(t, a).Estimate()
		if math.IsNaN(est) || est <= 0 || est > 1000*16 {
			t.Errorf("estimate %v for 1000 distinct labels", est)
		}
	})
}

// capabilities reports which optional interfaces sk implements.
func capabilities(sk sketch.Sketch) [7]bool {
	_, weighted := sk.(sketch.Weighted)
	_, summer := sk.(sketch.Summer)
	_, predicates := sk.(sketch.PredicateEstimator)
	_, describer := sk.(sketch.Describer)
	_, algebra := sk.(sketch.SetAlgebra)
	_, combiner := sk.(sketch.SetCombiner)
	_, accuracy := sk.(sketch.Accuracy)
	return [7]bool{weighted, summer, predicates, describer, algebra, combiner, accuracy}
}

// conformSetAlgebra holds set-capable kinds to the pairwise algebra
// contract and non-capable kinds to clean gating. Set operations work
// on clones (as the coordinator's expression evaluator does) and must
// refuse mismatched or cross-kind operands with sketch.ErrMismatch,
// exactly like Merge.
func conformSetAlgebra(t *testing.T, info sketch.KindInfo, a, b sketch.Sketch) {
	alg, capable := clone(t, a).(sketch.SetAlgebra)
	if !capable {
		// Clean gating: a kind without the algebra must not smuggle in
		// half of it either.
		if _, ok := a.(sketch.SetCombiner); ok {
			t.Errorf("kind %q implements SetCombiner but not SetAlgebra", info.Name)
		}
		return
	}

	estA, estB := clone(t, a).Estimate(), clone(t, b).Estimate()
	union := clone(t, a)
	if err := union.Merge(clone(t, b)); err != nil {
		t.Fatal(err)
	}
	estU := union.Estimate()
	inter, err := alg.SetIntersect(clone(t, b))
	if err != nil {
		t.Fatalf("SetIntersect: %v", err)
	}
	diff, err := alg.SetDiff(clone(t, b))
	if err != nil {
		t.Fatalf("SetDiff: %v", err)
	}
	jac, err := alg.SetJaccard(clone(t, b))
	if err != nil {
		t.Fatalf("SetJaccard: %v", err)
	}

	// Inclusion–exclusion: |A∪B| = |A| + |B| − |A∩B|, every term its
	// own estimate, so the identity holds within the combined error of
	// the conformance ε (generous, but deterministic seeds keep it
	// stable).
	if lhs, rhs := estU, estA+estB-inter; math.Abs(lhs-rhs) > 0.5*math.Max(lhs, rhs) {
		t.Errorf("inclusion–exclusion broken: |A∪B| = %v but |A|+|B|−|A∩B| = %v+%v−%v = %v", lhs, estA, estB, inter, rhs)
	}
	if inter < 0 || diff < 0 {
		t.Errorf("negative set estimate: intersect %v, diff %v", inter, diff)
	}
	if jac < 0 || jac > 1 {
		t.Errorf("Jaccard %v outside [0,1]", jac)
	}
	// Against itself the algebra is exact: identical retained sets.
	if d, err := alg.SetDiff(clone(t, a)); err != nil || d != 0 {
		t.Errorf("SetDiff(A, A) = (%v, %v), want (0, nil)", d, err)
	}
	if j, err := alg.SetJaccard(clone(t, a)); err != nil || j != 1 {
		t.Errorf("SetJaccard(A, A) = (%v, %v), want (1, nil)", j, err)
	}

	// Typed refusals: diverged configuration and cross-kind operands.
	other := build(t, info, 2, 0, 100)
	if other.Digest() != a.Digest() {
		if _, err := alg.SetIntersect(other); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched SetIntersect: err = %v, want sketch.ErrMismatch", err)
		}
		if _, err := alg.SetDiff(other); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched SetDiff: err = %v, want sketch.ErrMismatch", err)
		}
		if _, err := alg.SetJaccard(other); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched SetJaccard: err = %v, want sketch.ErrMismatch", err)
		}
	}
	for _, oi := range sketch.Kinds() {
		if oi.Kind == info.Kind {
			continue
		}
		foreign := build(t, oi, 1, 0, 10)
		if _, err := alg.SetIntersect(foreign); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("cross-kind SetIntersect (%q into %q): err = %v, want sketch.ErrMismatch", oi.Name, info.Name, err)
		}
		break
	}

	comb, combines := clone(t, a).(sketch.SetCombiner)
	if !combines {
		return
	}
	// The sketch-valued operations must agree with the scalars exactly
	// (both reduce the same per-copy sample counts) and produce a
	// merge-compatible sketch — the closure property interior
	// expression nodes rely on.
	csk, err := comb.CombineIntersect(clone(t, b))
	if err != nil {
		t.Fatalf("CombineIntersect: %v", err)
	}
	if got := csk.Estimate(); got != inter {
		t.Errorf("CombineIntersect estimate %v != SetIntersect %v", got, inter)
	}
	if csk.Kind() != a.Kind() || csk.Digest() != a.Digest() {
		t.Errorf("combined sketch changed identity: kind %v/%v digest %x/%x", csk.Kind(), a.Kind(), csk.Digest(), a.Digest())
	}
	if err := clone(t, a).Merge(csk); err != nil {
		t.Errorf("combined sketch refuses to merge back: %v", err)
	}
	dsk, err := comb.CombineDiff(clone(t, b))
	if err != nil {
		t.Fatalf("CombineDiff: %v", err)
	}
	if got := dsk.Estimate(); got != diff {
		t.Errorf("CombineDiff estimate %v != SetDiff %v", got, diff)
	}
	if other.Digest() != a.Digest() {
		if _, err := comb.CombineIntersect(other); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched CombineIntersect: err = %v, want sketch.ErrMismatch", err)
		}
		if _, err := comb.CombineDiff(other); !errors.Is(err, sketch.ErrMismatch) {
			t.Errorf("mismatched CombineDiff: err = %v, want sketch.ErrMismatch", err)
		}
	}
}
