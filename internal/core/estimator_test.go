package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/hashing"
)

func TestEstimatorDeterministicConstruction(t *testing.T) {
	cfg := EstimatorConfig{Capacity: 32, Copies: 5, Seed: 9}
	a, b := NewEstimator(cfg), NewEstimator(cfg)
	for i := 0; i < a.Copies(); i++ {
		if a.copies[i].cfg.Seed != b.copies[i].cfg.Seed {
			t.Fatalf("copy %d seeds differ across identical constructions", i)
		}
	}
	// Copies must have distinct seeds from each other.
	seen := map[uint64]bool{}
	for i := 0; i < a.Copies(); i++ {
		s := a.copies[i].cfg.Seed
		if seen[s] {
			t.Fatalf("copy %d reuses a seed", i)
		}
		seen[s] = true
	}
}

func TestEstimatorAccuracy(t *testing.T) {
	const truth = 100000
	e := NewEstimator(EstimatorConfig{Capacity: 1024, Copies: 9, Seed: 5})
	for x := uint64(0); x < truth; x++ {
		e.Process(x)
	}
	got := e.EstimateDistinct()
	if rel := math.Abs(got-truth) / truth; rel > 0.12 {
		t.Errorf("estimate %.0f vs %d: rel err %.3f", got, truth, rel)
	}
}

func TestEstimatorMedianBeatsWorstCopy(t *testing.T) {
	const truth = 50000
	e := NewEstimator(EstimatorConfig{Capacity: 256, Copies: 15, Seed: 77})
	for x := uint64(0); x < truth; x++ {
		e.Process(x)
	}
	medErr := math.Abs(e.EstimateDistinct()-truth) / truth
	worst := 0.0
	for i := 0; i < e.Copies(); i++ {
		err := math.Abs(e.copies[i].EstimateDistinct()-truth) / truth
		if err > worst {
			worst = err
		}
	}
	if medErr > worst {
		t.Errorf("median error %.4f exceeds worst copy error %.4f", medErr, worst)
	}
}

func TestEstimatorMergeMatchesUnion(t *testing.T) {
	cfg := EstimatorConfig{Capacity: 64, Copies: 5, Seed: 13}
	a, b, both := NewEstimator(cfg), NewEstimator(cfg), NewEstimator(cfg)
	r := hashing.NewXoshiro256(2)
	for i := 0; i < 3000; i++ {
		x := r.Uint64n(2000)
		a.Process(x)
		both.Process(x)
	}
	for i := 0; i < 3000; i++ {
		x := r.Uint64n(2000) + 1000
		b.Process(x)
		both.Process(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	x, _ := a.MarshalBinary()
	y, _ := both.MarshalBinary()
	if string(x) != string(y) {
		t.Error("estimator merge differs from processing the union")
	}
}

func TestEstimatorMergeMismatch(t *testing.T) {
	a := NewEstimator(EstimatorConfig{Capacity: 64, Copies: 5, Seed: 13})
	cases := []EstimatorConfig{
		{Capacity: 64, Copies: 5, Seed: 14},
		{Capacity: 32, Copies: 5, Seed: 13},
		{Capacity: 64, Copies: 7, Seed: 13},
		{Capacity: 64, Copies: 5, Seed: 13, Family: FamilyTabulation},
	}
	for i, cfg := range cases {
		if err := a.Merge(NewEstimator(cfg)); !errors.Is(err, ErrMismatch) {
			t.Errorf("case %d: err = %v, want ErrMismatch", i, err)
		}
	}
	if err := a.Merge(nil); !errors.Is(err, ErrMismatch) {
		t.Error("Merge(nil) did not return ErrMismatch")
	}
}

func TestEstimatorRoundTrip(t *testing.T) {
	e := NewEstimator(EstimatorConfig{Capacity: 64, Copies: 5, Seed: 21})
	for x := uint64(0); x < 5000; x++ {
		e.ProcessWeighted(x, x%7+1)
	}
	enc, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Estimator
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Config() != e.Config() {
		t.Errorf("config round trip: %+v vs %+v", got.Config(), e.Config())
	}
	if got.EstimateDistinct() != e.EstimateDistinct() {
		t.Error("distinct estimate changed across round trip")
	}
	if got.EstimateSum() != e.EstimateSum() {
		t.Error("sum estimate changed across round trip")
	}
	// A decoded estimator must merge with a live one.
	live := NewEstimator(e.Config())
	for x := uint64(4000); x < 9000; x++ {
		live.ProcessWeighted(x, x%7+1)
	}
	if err := got.Merge(live); err != nil {
		t.Fatalf("merging decoded estimator: %v", err)
	}
}

func TestEstimatorUnmarshalCorrupt(t *testing.T) {
	e := NewEstimator(EstimatorConfig{Capacity: 16, Copies: 3, Seed: 2})
	for x := uint64(0); x < 100; x++ {
		e.Process(x)
	}
	enc, _ := e.MarshalBinary()
	var d Estimator
	for name, data := range map[string][]byte{
		"empty":     nil,
		"short":     enc[:4],
		"bad magic": append([]byte{'X', 'X'}, enc[2:]...),
		"truncated": enc[:len(enc)-3],
		"trailing":  append(append([]byte(nil), enc...), 1),
	} {
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// forgeCopy returns a copy of the estimator encoding enc in which f
// has rewritten copy i's fixed sampler header: magic, version, family,
// raise policy (hdr[4]) and seed (hdr[5:13]).
func forgeCopy(tb testing.TB, enc []byte, i int, f func(hdr []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), enc...)
	off := 11
	n, k := binary.Uvarint(out[off:])
	off += k
	for c := 0; c < int(n); c++ {
		sz, k := binary.Uvarint(out[off:])
		off += k
		if c == i {
			f(out[off : off+13])
			return out
		}
		off += int(sz)
	}
	tb.Fatalf("encoding has no copy %d", i)
	return nil
}

// A copy whose seed is not the master seed's SplitMix64 value, or
// whose raise policy differs from the other copies', is outside the
// configuration the digest vouches for; decoding must refuse it rather
// than hand a coordinator a sketch no legitimate push can merge with.
func TestEstimatorUnmarshalRejectsDivergentCopies(t *testing.T) {
	e := NewEstimator(EstimatorConfig{Capacity: 64, Copies: 3, Seed: 8})
	for x := uint64(0); x < 20; x++ {
		e.Process(x)
	}
	enc, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"copy 0 seed":  forgeCopy(t, enc, 0, func(h []byte) { h[5] ^= 1 }),
		"copy 2 seed":  forgeCopy(t, enc, 2, func(h []byte) { h[12] ^= 0x80 }),
		"copy 1 raise": forgeCopy(t, enc, 1, func(h []byte) { h[4] = byte(RaiseJump) }),
		"copies swapped": forgeCopy(t, forgeCopy(t, enc, 0, func(h []byte) {
			binary.LittleEndian.PutUint64(h[5:], e.copies[1].cfg.Seed)
		}), 1, func(h []byte) {
			binary.LittleEndian.PutUint64(h[5:], e.copies[0].cfg.Seed)
		}),
	} {
		var d Estimator
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	var d Estimator
	if err := d.UnmarshalBinary(enc); err != nil {
		t.Fatalf("untouched encoding: %v", err)
	}
}

func TestEstimatorPredicates(t *testing.T) {
	e := NewEstimator(EstimatorConfig{Capacity: 1024, Copies: 5, Seed: 3})
	const n = 40000
	for x := uint64(0); x < n; x++ {
		e.ProcessWeighted(x, 2)
	}
	cnt := e.EstimateCountWhere(func(x uint64) bool { return x%4 == 0 })
	want := float64(n) / 4
	if rel := math.Abs(cnt-want) / want; rel > 0.15 {
		t.Errorf("quarter predicate: %.0f vs %.0f (rel %.3f)", cnt, want, rel)
	}
	sum := e.EstimateSumWhere(func(x uint64) bool { return x%4 == 0 })
	if rel := math.Abs(sum-2*want) / (2 * want); rel > 0.15 {
		t.Errorf("quarter sum: %.0f vs %.0f (rel %.3f)", sum, 2*want, rel)
	}
}

func TestEstimatorResetClone(t *testing.T) {
	e := NewEstimator(EstimatorConfig{Capacity: 16, Copies: 3, Seed: 4})
	for x := uint64(0); x < 1000; x++ {
		e.Process(x)
	}
	c := e.Clone()
	e.Reset()
	if e.EstimateDistinct() != 0 {
		t.Error("Reset did not clear estimate")
	}
	if c.EstimateDistinct() == 0 {
		t.Error("Reset cleared the clone too")
	}
}

func TestNewEstimatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEstimator with 0 copies did not panic")
		}
	}()
	NewEstimator(EstimatorConfig{Capacity: 4, Copies: 0})
}

func TestConfigForAccuracy(t *testing.T) {
	cfg := ConfigForAccuracy(0.1, 0.05, 42)
	if cfg.Capacity != CapacityForEpsilon(0.1) {
		t.Errorf("capacity = %d", cfg.Capacity)
	}
	if cfg.Copies != CopiesForDelta(0.05) {
		t.Errorf("copies = %d", cfg.Copies)
	}
	if cfg.Seed != 42 {
		t.Errorf("seed = %d", cfg.Seed)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 1, 100}, 1},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}
