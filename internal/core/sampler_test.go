package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

// refState computes the reference state the sampler must reach after
// observing the given labels: the smallest level L (≥ 0) such that
// |{distinct x : ℓ(x) ≥ L}| ≤ capacity, and that surviving set.
func refState(cfg Config, labels []uint64) (level int, sample map[uint64]bool) {
	h := cfg.Family.New(cfg.Seed)
	distinct := map[uint64]int{}
	for _, x := range labels {
		distinct[x] = hashing.GeometricLevel(h.Hash(x))
	}
	for level = 0; level <= hashing.MaxLevel; level++ {
		n := 0
		for _, lvl := range distinct {
			if lvl >= level {
				n++
			}
		}
		if n <= cfg.Capacity || level == hashing.MaxLevel {
			break
		}
	}
	sample = map[uint64]bool{}
	for x, lvl := range distinct {
		if lvl >= level {
			sample[x] = true
		}
	}
	return level, sample
}

// sampleSet returns the labels s retains.
func sampleSet(s *Sampler) map[uint64]bool {
	m := map[uint64]bool{}
	for _, e := range retained(s) {
		m[e.label] = true
	}
	return m
}

func equalSets(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// TestSamplerInvariant checks the central invariant against the brute
// force reference on random streams.
//
// Note the subtlety: the sequential sampler's level can only be raised
// by overflow, so its level is the smallest that EVER fit during the
// prefix — which, because the surviving set only grows with the
// stream, equals the reference's smallest fitting level for the whole
// distinct set.
func TestSamplerInvariant(t *testing.T) {
	r := hashing.NewXoshiro256(1)
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			Capacity: 1 + r.Intn(64),
			Seed:     r.Uint64(),
		}
		n := 1 + r.Intn(3000)
		universe := uint64(1 + r.Intn(700))
		labels := make([]uint64, n)
		for i := range labels {
			labels[i] = r.Uint64n(universe)
		}
		s := NewSampler(cfg)
		for _, x := range labels {
			s.Process(x)
		}
		wantLevel, wantSample := refState(cfg, labels)
		if s.level != wantLevel {
			t.Fatalf("trial=%d: level=%d want %d", trial, s.level, wantLevel)
		}
		if !equalSets(sampleSet(s), wantSample) {
			t.Fatalf("trial=%d: sample set mismatch (%d vs %d entries)",
				trial, s.n, len(wantSample))
		}
	}
}

func TestSamplerDuplicateInsensitive(t *testing.T) {
	cfg := Config{Capacity: 32, Seed: 7}
	a := NewSampler(cfg)
	b := NewSampler(cfg)
	for x := uint64(0); x < 500; x++ {
		a.Process(x)
	}
	for rep := 0; rep < 5; rep++ {
		for x := uint64(0); x < 500; x++ {
			b.Process(x)
		}
	}
	ba, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if string(ba) != string(bb) {
		t.Error("duplicated stream produced a different sketch")
	}
}

func TestSamplerOrderInsensitive(t *testing.T) {
	cfg := Config{Capacity: 32, Seed: 9}
	labels := make([]uint64, 2000)
	r := hashing.NewXoshiro256(3)
	for i := range labels {
		labels[i] = r.Uint64n(400)
	}
	a := NewSampler(cfg)
	for _, x := range labels {
		a.Process(x)
	}
	// Shuffle.
	for i := len(labels) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		labels[i], labels[j] = labels[j], labels[i]
	}
	b := NewSampler(cfg)
	for _, x := range labels {
		b.Process(x)
	}
	ba, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if string(ba) != string(bb) {
		t.Error("shuffled stream produced a different sketch")
	}
}

// incrementRef is the paper's sampler with its one-step raise: on
// overflow the level goes up by one and the sample is filtered, again
// and again until the sample fits.
type incrementRef struct {
	capacity int
	hash     hashing.Family
	level    int
	sample   map[uint64]int // label → ℓ(label)
}

func (r *incrementRef) process(x uint64) {
	lvl := hashing.GeometricLevel(r.hash.Hash(x))
	if lvl < r.level {
		return
	}
	r.sample[x] = lvl
	for len(r.sample) > r.capacity && r.level < hashing.MaxLevel {
		r.level++
		for y, ly := range r.sample {
			if ly < r.level {
				delete(r.sample, y)
			}
		}
	}
}

// TestRaisePoliciesAgree checks that the sampler's single raise path,
// a jump to the smallest fitting level, reaches the state of the
// paper's one-step raise after every prefix of the stream, whichever
// policy the Config declares.
func TestRaisePoliciesAgree(t *testing.T) {
	r := hashing.NewXoshiro256(5)
	for trial := 0; trial < 20; trial++ {
		cfg := Config{
			Capacity: 1 + r.Intn(50),
			Seed:     r.Uint64(),
			Family:   FamilyKind(r.Intn(3)),
			Raise:    RaisePolicy(r.Intn(2)),
		}
		ref := &incrementRef{capacity: cfg.Capacity, hash: cfg.Family.New(cfg.Seed), sample: map[uint64]int{}}
		s := NewSampler(cfg)
		for i := 0; i < 2000; i++ {
			x := r.Uint64n(1000)
			ref.process(x)
			s.Process(x)
			if s.level != ref.level || s.n != len(ref.sample) {
				t.Fatalf("trial %d (%+v) item %d: level/len %d/%d, one-step reference %d/%d",
					trial, cfg, i, s.level, s.n, ref.level, len(ref.sample))
			}
		}
		want := map[uint64]bool{}
		for x := range ref.sample {
			want[x] = true
		}
		if !equalSets(sampleSet(s), want) {
			t.Fatalf("trial %d: sample differs from the one-step reference", trial)
		}
	}
}

func TestSamplerEstimateAccuracy(t *testing.T) {
	// With capacity 4096 (ε ≈ 0.054 per our constant) a single fixed
	// seed should land well within 10% of the truth. Deterministic.
	const truth = 50000
	s := NewSampler(Config{Capacity: 4096, Seed: 42})
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
		s.Process(x) // duplicates must not matter
	}
	got := s.EstimateDistinct()
	if rel := math.Abs(got-truth) / truth; rel > 0.10 {
		t.Errorf("estimate %.0f vs truth %d: rel err %.3f > 0.10", got, truth, rel)
	}
}

func TestSamplerEstimateAcrossSeeds(t *testing.T) {
	// The median over many independent seeds must be very close to
	// the truth even with a modest capacity.
	const truth = 20000
	var ests []float64
	for seed := uint64(0); seed < 31; seed++ {
		s := NewSampler(Config{Capacity: 256, Seed: hashing.Mix64(seed)})
		for x := uint64(0); x < truth; x++ {
			s.Process(x)
		}
		ests = append(ests, s.EstimateDistinct())
	}
	med := Median(ests)
	if rel := math.Abs(med-truth) / truth; rel > 0.15 {
		t.Errorf("median estimate %.0f vs truth %d: rel err %.3f", med, truth, rel)
	}
}

func TestSamplerSmallStreamExact(t *testing.T) {
	// While the sample has not overflowed, the estimate is exact.
	s := NewSampler(Config{Capacity: 128, Seed: 3})
	for x := uint64(0); x < 100; x++ {
		s.Process(x)
	}
	if s.level != 0 {
		t.Fatalf("level = %d, want 0 before overflow", s.level)
	}
	if got := s.EstimateDistinct(); got != 100 {
		t.Errorf("estimate = %v, want exactly 100", got)
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(Config{Capacity: 8, Seed: 1})
	if got := s.EstimateDistinct(); got != 0 {
		t.Errorf("empty estimate = %v, want 0", got)
	}
	if got := s.EstimateSum(); got != 0 {
		t.Errorf("empty sum = %v, want 0", got)
	}
	if s.n != 0 || s.level != 0 {
		t.Errorf("empty sampler has Len=%d Level=%d", s.n, s.level)
	}
}

func TestSamplerCapacityOne(t *testing.T) {
	s := NewSampler(Config{Capacity: 1, Seed: 11})
	for x := uint64(0); x < 10000; x++ {
		s.Process(x)
	}
	if s.n > 1 {
		t.Errorf("capacity-1 sampler holds %d entries", s.n)
	}
	// The estimate is extremely noisy at capacity 1, but must still
	// be a finite non-negative number.
	if est := s.EstimateDistinct(); est < 0 || math.IsInf(est, 0) || math.IsNaN(est) {
		t.Errorf("degenerate estimate: %v", est)
	}
}

func TestNewSamplerPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero capacity": {Capacity: 0},
		"bad family":    {Capacity: 4, Family: FamilyKind(200)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSampler did not panic", name)
				}
			}()
			NewSampler(cfg)
		}()
	}
}

func TestMergeEqualsUnionProcessing(t *testing.T) {
	// Because the sampler state is a pure function of the distinct
	// label set, merging two sketches must equal sketching the
	// concatenated stream exactly.
	r := hashing.NewXoshiro256(8)
	for trial := 0; trial < 25; trial++ {
		cfg := Config{Capacity: 1 + r.Intn(40), Seed: r.Uint64()}
		n1, n2 := r.Intn(1500), r.Intn(1500)
		s1, s2, both := NewSampler(cfg), NewSampler(cfg), NewSampler(cfg)
		for i := 0; i < n1; i++ {
			x := r.Uint64n(500)
			s1.Process(x)
			both.Process(x)
		}
		for i := 0; i < n2; i++ {
			x := r.Uint64n(500)
			s2.Process(x)
			both.Process(x)
		}
		if err := s1.Merge(s2); err != nil {
			t.Fatal(err)
		}
		a, _ := s1.MarshalBinary()
		b, _ := both.MarshalBinary()
		if string(a) != string(b) {
			t.Fatalf("trial %d: merge != union processing (levels %d vs %d, sizes %d vs %d)",
				trial, s1.level, both.level, s1.n, both.n)
		}
	}
}

// buildTriple builds three samplers over random streams with one config.
func buildTriple(seed uint64) (cfg Config, a, b, c *Sampler) {
	r := hashing.NewXoshiro256(seed)
	cfg = Config{Capacity: 1 + r.Intn(30), Seed: r.Uint64()}
	a, b, c = NewSampler(cfg), NewSampler(cfg), NewSampler(cfg)
	for i, s := 0, []*Sampler{a, b, c}; i < len(s); i++ {
		n := r.Intn(800)
		for j := 0; j < n; j++ {
			s[i].Process(r.Uint64n(300))
		}
	}
	return cfg, a, b, c
}

func TestMergeCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		_, ab, b, _ := buildTriple(seed)
		_, a, ba, _ := buildTriple(seed)
		if err := ab.Merge(b); err != nil {
			return false
		}
		if err := ba.Merge(a); err != nil {
			return false
		}
		x, _ := ab.MarshalBinary()
		y, _ := ba.MarshalBinary()
		return string(x) == string(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		_, left, b, c := buildTriple(seed)
		_, right, bc, _ := buildTriple(seed)
		if err := left.Merge(b); err != nil {
			return false
		}
		if err := left.Merge(c); err != nil {
			return false
		}
		if err := bc.Merge(c); err != nil {
			return false
		}
		if err := right.Merge(bc); err != nil {
			return false
		}
		x, _ := left.MarshalBinary()
		y, _ := right.MarshalBinary()
		return string(x) == string(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		_, a, _, _ := buildTriple(seed)
		_, dup, _, _ := buildTriple(seed)
		before, _ := a.MarshalBinary()
		if err := a.Merge(dup); err != nil {
			return false
		}
		after, _ := a.MarshalBinary()
		return string(before) == string(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeMismatch(t *testing.T) {
	base := Config{Capacity: 16, Seed: 5}
	a := NewSampler(base)
	cases := map[string]Config{
		"seed":     {Capacity: 16, Seed: 6},
		"capacity": {Capacity: 17, Seed: 5},
		"family":   {Capacity: 16, Seed: 5, Family: FamilyTabulation},
	}
	for name, cfg := range cases {
		if err := a.Merge(NewSampler(cfg)); err == nil {
			t.Errorf("%s mismatch: Merge succeeded, want error", name)
		}
	}
	if err := a.Merge(nil); err == nil {
		t.Error("Merge(nil) succeeded, want error")
	}
	// Raise policy differences are explicitly allowed.
	if err := a.Merge(NewSampler(Config{Capacity: 16, Seed: 5, Raise: RaiseJump})); err != nil {
		t.Errorf("raise-policy-only difference rejected: %v", err)
	}
}

func TestMergeFailureLeavesStateUsable(t *testing.T) {
	a := NewSampler(Config{Capacity: 16, Seed: 5})
	for x := uint64(0); x < 100; x++ {
		a.Process(x)
	}
	before, _ := a.MarshalBinary()
	if err := a.Merge(NewSampler(Config{Capacity: 16, Seed: 99})); err == nil {
		t.Fatal("expected mismatch error")
	}
	after, _ := a.MarshalBinary()
	if string(before) != string(after) {
		t.Error("failed merge modified the sampler")
	}
}

func TestEstimateCountWhere(t *testing.T) {
	s := NewSampler(Config{Capacity: 2048, Seed: 21})
	const truth = 30000
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	even := s.EstimateCountWhere(func(x uint64) bool { return x%2 == 0 })
	if rel := math.Abs(even-truth/2) / (truth / 2); rel > 0.15 {
		t.Errorf("even-label estimate %.0f vs %d: rel err %.3f", even, truth/2, rel)
	}
	none := s.EstimateCountWhere(func(x uint64) bool { return false })
	if none != 0 {
		t.Errorf("false predicate estimate = %v, want 0", none)
	}
	all := s.EstimateCountWhere(func(x uint64) bool { return true })
	if all != s.EstimateDistinct() {
		t.Errorf("true predicate %v != EstimateDistinct %v", all, s.EstimateDistinct())
	}
}

func TestWeightedSum(t *testing.T) {
	s := NewSampler(Config{Capacity: 4096, Seed: 33})
	const n = 20000
	var truth float64
	for x := uint64(0); x < n; x++ {
		v := x%10 + 1
		s.ProcessWeighted(x, v)
		s.ProcessWeighted(x, v) // duplicate occurrence, same value
		truth += float64(v)
	}
	got := s.EstimateSum()
	if rel := math.Abs(got-truth) / truth; rel > 0.10 {
		t.Errorf("sum estimate %.0f vs truth %.0f: rel err %.3f", got, truth, rel)
	}
	where := s.EstimateSumWhere(func(x uint64) bool { return true })
	if where != got {
		t.Errorf("EstimateSumWhere(true) = %v, want %v", where, got)
	}
}

func TestReset(t *testing.T) {
	s := NewSampler(Config{Capacity: 8, Seed: 2})
	for x := uint64(0); x < 1000; x++ {
		s.Process(x)
	}
	s.Reset()
	if s.n != 0 || s.level != 0 || s.EstimateSum() != 0 {
		t.Errorf("Reset left Len=%d Level=%d Sum=%v", s.n, s.level, s.EstimateSum())
	}
	// Still usable and still coordinated (same seed).
	s.Process(7)
	other := NewSampler(s.cfg)
	other.Process(7)
	a, _ := s.MarshalBinary()
	b, _ := other.MarshalBinary()
	if string(a) != string(b) {
		t.Error("Reset changed the sampler's hash function")
	}
}

func seq(n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func TestCapacityEpsilonHelpers(t *testing.T) {
	for _, eps := range []float64{0.5, 0.1, 0.05, 0.02} {
		c := CapacityForEpsilon(eps)
		if c < 4 {
			t.Errorf("CapacityForEpsilon(%v) = %d too small", eps, c)
		}
		back := EpsilonForCapacity(c)
		if back > eps*1.1 {
			t.Errorf("EpsilonForCapacity(%d) = %v, want <= ~%v", c, back, eps)
		}
	}
	if got := EpsilonForCapacity(1); got != 1 {
		t.Errorf("EpsilonForCapacity(1) = %v, want clamped to 1", got)
	}
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CapacityForEpsilon(%v) did not panic", bad)
				}
			}()
			CapacityForEpsilon(bad)
		}()
	}
}

func TestCopiesForDelta(t *testing.T) {
	if got := CopiesForDelta(0.4); got%2 == 0 {
		t.Errorf("CopiesForDelta returned even count %d", got)
	}
	small := CopiesForDelta(0.25)
	large := CopiesForDelta(0.001)
	if large <= small {
		t.Errorf("copies not increasing as delta shrinks: %d vs %d", small, large)
	}
	for _, bad := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopiesForDelta(%v) did not panic", bad)
				}
			}()
			CopiesForDelta(bad)
		}()
	}
}

// TestEstimateUnbiasedAcrossSeeds checks the estimator's first moment:
// averaged over independent hash functions, |sample|·2^level must be
// very close to the true distinct count (the estimator is unbiased up
// to the overflow boundary effect).
func TestEstimateUnbiasedAcrossSeeds(t *testing.T) {
	const truth = 30000
	const seeds = 60
	var sum float64
	for s := uint64(0); s < seeds; s++ {
		smp := NewSampler(Config{Capacity: 256, Seed: hashing.Mix64(0x5eed + s)})
		for x := uint64(0); x < truth; x++ {
			smp.Process(x)
		}
		sum += smp.EstimateDistinct()
	}
	mean := sum / seeds
	if rel := math.Abs(mean-truth) / truth; rel > 0.03 {
		t.Errorf("mean estimate %.0f over %d seeds vs truth %d: bias %.3f", mean, seeds, truth, rel)
	}
}
