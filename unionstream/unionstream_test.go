package unionstream

import (
	"math"
	"testing"
)

func TestDefaults(t *testing.T) {
	s, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eps := s.Epsilon(); eps > 0.06 {
		t.Errorf("default epsilon = %v, want <= ~0.05", eps)
	}
	if s.Copies() < 3 {
		t.Errorf("default copies = %d", s.Copies())
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []Options{
		{Epsilon: -0.1},
		{Epsilon: 1.5},
		{Delta: -0.1},
		{Delta: 1},
		{Capacity: -1},
		{Copies: -1},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestEndToEndUnion(t *testing.T) {
	opts := Options{Epsilon: 0.05, Delta: 0.01, Seed: 42}
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 60k labels at A, 60k at B, 20k shared → union = 100k.
	for x := uint64(0); x < 60000; x++ {
		a.Add(x)
	}
	for x := uint64(40000); x < 100000; x++ {
		b.Add(x)
	}
	// Ship B's sketch as bytes, as a remote party would.
	msg, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(decoded); err != nil {
		t.Fatal(err)
	}
	got := a.DistinctCount()
	if rel := math.Abs(got-100000) / 100000; rel > 0.07 {
		t.Errorf("union estimate %.0f, rel err %.3f", got, rel)
	}
}

func TestMergeMismatch(t *testing.T) {
	a, _ := New(Options{Seed: 1})
	b, _ := New(Options{Seed: 2})
	err := a.Merge(b)
	if err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if !IsMismatch(err) {
		t.Errorf("IsMismatch(%v) = false", err)
	}
	if err := a.Merge(nil); !IsMismatch(err) {
		t.Error("nil merge not a mismatch")
	}
}

func TestValuedAndPredicates(t *testing.T) {
	s, _ := New(Options{Epsilon: 0.05, Seed: 3})
	const n = 50000
	for x := uint64(0); x < n; x++ {
		s.AddValued(x, x%5+1) // mean value 3
	}
	if rel := math.Abs(s.SumDistinct()-3*n) / (3 * n); rel > 0.08 {
		t.Errorf("SumDistinct rel err %.3f", rel)
	}
	even := s.CountWhere(func(x uint64) bool { return x%2 == 0 })
	if rel := math.Abs(even-n/2) / (n / 2); rel > 0.10 {
		t.Errorf("CountWhere rel err %.3f", rel)
	}
	evenSum := s.SumWhere(func(x uint64) bool { return x%2 == 0 })
	wantEvenSum := float64(n/2) * 3 // labels 0,2,4,... have values 1,3,5,1,3... mean 3
	if rel := math.Abs(evenSum-wantEvenSum) / wantEvenSum; rel > 0.12 {
		t.Errorf("SumWhere = %.0f, want ~%.0f (rel %.3f)", evenSum, wantEvenSum, rel)
	}
}

func TestStringLabels(t *testing.T) {
	opts := Options{Epsilon: 0.1, Seed: 9}
	a, _ := New(opts)
	b, _ := New(opts)
	// Same string must hash identically in separate sketches.
	a.AddString("host-17")
	b.AddBytes([]byte("host-17"))
	am, _ := a.MarshalBinary()
	bm, _ := b.MarshalBinary()
	if string(am) != string(bm) {
		t.Error("AddString and AddBytes disagree")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
	s, _ := New(Options{Seed: 1})
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil decoded")
	}
}

func TestResetClone(t *testing.T) {
	s, _ := New(Options{Epsilon: 0.2, Seed: 5})
	for x := uint64(0); x < 1000; x++ {
		s.Add(x)
	}
	c := s.Clone()
	s.Reset()
	if s.DistinctCount() != 0 {
		t.Error("Reset incomplete")
	}
	if c.DistinctCount() == 0 {
		t.Error("Clone not independent")
	}
	// Reset sketch remains coordinated with a fresh one.
	s.Add(7)
	fresh, _ := New(Options{Epsilon: 0.2, Seed: 5})
	fresh.Add(7)
	if err := s.Merge(fresh); err != nil {
		t.Errorf("reset sketch lost coordination: %v", err)
	}
}

func TestSizeBytesSmall(t *testing.T) {
	s, _ := New(Options{Epsilon: 0.05, Delta: 0.01, Seed: 1})
	for x := uint64(0); x < 1000000; x++ {
		s.Add(x)
	}
	// 1M distinct labels (8 MB raw) must compress to a few hundred KB
	// at most; with ε=0.05, δ=0.01 the sketch is ~capacity·copies
	// entries.
	if s.SizeBytes() > 1<<20 {
		t.Errorf("sketch size %d bytes is not 'small space'", s.SizeBytes())
	}
	if s.SizeBytes() == 0 {
		t.Error("zero size")
	}
}

func TestAdvancedOverrides(t *testing.T) {
	s, err := New(Options{Capacity: 64, Copies: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Copies() != 3 {
		t.Errorf("Copies = %d, want 3", s.Copies())
	}
}

func TestSetOperations(t *testing.T) {
	opts := Options{Epsilon: 0.03, Seed: 31}
	a, _ := New(opts)
	b, _ := New(opts)
	// |A|=60k, |B|=60k, |A∩B|=20k, |A\B|=40k, J=0.2.
	for x := uint64(0); x < 60000; x++ {
		a.Add(x)
	}
	for x := uint64(40000); x < 100000; x++ {
		b.Add(x)
	}
	inter, err := a.IntersectionCount(b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(inter-20000) / 20000; rel > 0.15 {
		t.Errorf("intersection rel %.3f", rel)
	}
	diff, err := a.DifferenceCount(b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(diff-40000) / 40000; rel > 0.15 {
		t.Errorf("difference rel %.3f", rel)
	}
	j, err := a.Jaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.2) > 0.04 {
		t.Errorf("jaccard = %.3f, want ~0.2", j)
	}
	// Mismatch & nil paths.
	c, _ := New(Options{Epsilon: 0.03, Seed: 32})
	if _, err := a.IntersectionCount(c); !IsMismatch(err) {
		t.Error("intersection accepted mismatched sketch")
	}
	if _, err := a.DifferenceCount(nil); !IsMismatch(err) {
		t.Error("difference accepted nil")
	}
	if _, err := a.Jaccard(nil); !IsMismatch(err) {
		t.Error("jaccard accepted nil")
	}
}

func TestWindowSketchPublicAPI(t *testing.T) {
	opts := WindowOptions{Epsilon: 0.05, Seed: 1}
	a, err := NewWindow(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWindow(opts)
	if err != nil {
		t.Fatal(err)
	}
	for ts := uint64(1); ts <= 5000; ts++ {
		if err := a.Add(ts, ts); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(ts+2500, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.LastTimestamp() != 5000 {
		t.Errorf("LastTimestamp = %d", a.LastTimestamp())
	}
	got, err := a.DistinctSince(4001)
	if err != nil {
		t.Fatal(err)
	}
	// Window [4001,5000]: labels 4001..5000 and 6501..7500 → 2000,
	// estimated within epsilon.
	if rel := math.Abs(got-2000) / 2000; rel > 0.10 {
		t.Errorf("windowed union = %.0f, rel %.3f", got, rel)
	}
	if a.MemoryEntries() == 0 {
		t.Error("MemoryEntries = 0")
	}
	// Error paths.
	if err := a.Add(1, 10); err == nil {
		t.Error("out-of-order accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
	c, _ := NewWindow(WindowOptions{Epsilon: 0.05, Seed: 99})
	if err := a.Merge(c); err == nil {
		t.Error("seed mismatch accepted")
	}
}

func TestNewWindowValidation(t *testing.T) {
	bad := []WindowOptions{
		{Epsilon: -1},
		{Epsilon: 2},
		{Capacity: -4},
		{MaxLevel: -1},
		{MaxLevel: 99},
	}
	for i, o := range bad {
		if _, err := NewWindow(o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

func TestWindowSketchSerialization(t *testing.T) {
	opts := WindowOptions{Epsilon: 0.1, Seed: 5}
	a, _ := NewWindow(opts)
	for ts := uint64(1); ts <= 3000; ts++ {
		if err := a.Add(ts%700, ts); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if a.SizeBytes() != len(msg) {
		t.Errorf("SizeBytes %d != len(msg) %d", a.SizeBytes(), len(msg))
	}
	got, err := DecodeWindow(msg)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := a.DistinctLast(500)
	y, err := got.DistinctLast(500)
	if err != nil || x != y {
		t.Errorf("decoded window answer %v (err %v) != %v", y, err, x)
	}
	// Decoded sketch merges with a live coordinated one.
	b, _ := NewWindow(opts)
	for ts := uint64(1); ts <= 3000; ts++ {
		if err := b.Add(ts%900+10000, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.Merge(b); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWindow([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
	var w WindowSketch
	if err := w.UnmarshalBinary(nil); err == nil {
		t.Error("nil decoded")
	}
}
