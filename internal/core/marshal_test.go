package core

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func buildSampler(seed uint64, n int) *Sampler {
	r := hashing.NewXoshiro256(seed)
	s := NewSampler(Config{Capacity: 1 + r.Intn(64), Seed: r.Uint64()})
	for i := 0; i < n; i++ {
		s.ProcessWeighted(r.Uint64n(10000), 1+r.Uint64n(100))
	}
	return s
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := buildSampler(seed, int(seed%5000))
		enc, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := DecodeSampler(enc)
		if err != nil {
			return false
		}
		enc2, err := got.MarshalBinary()
		if err != nil {
			return false
		}
		return string(enc) == string(enc2) &&
			got.level == s.level &&
			got.n == s.n &&
			got.EstimateSum() == s.EstimateSum() &&
			got.cfg == s.cfg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarshalEmptySampler(t *testing.T) {
	s := NewSampler(Config{Capacity: 8, Seed: 3})
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSampler(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != 0 || got.level != 0 {
		t.Errorf("decoded empty sampler has Len=%d Level=%d", got.n, got.level)
	}
}

func TestMarshalAllFamilies(t *testing.T) {
	for _, fam := range []FamilyKind{FamilyPairwise, FamilyFourWise, FamilyTabulation} {
		s := NewSampler(Config{Capacity: 16, Seed: 4, Family: fam})
		for x := uint64(0); x < 500; x++ {
			s.Process(x)
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		got, err := DecodeSampler(enc)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if got.cfg.Family != fam {
			t.Errorf("family %s round-tripped as %s", fam, got.cfg.Family)
		}
		if got.EstimateDistinct() != s.EstimateDistinct() {
			t.Errorf("%s: estimate changed across round trip", fam)
		}
	}
}

// TestMergeDecodedSketch exercises the paper's communication pattern:
// party B serializes, the coordinator decodes and merges into A's
// sketch; the result must equal an in-memory merge.
func TestMergeDecodedSketch(t *testing.T) {
	cfg := Config{Capacity: 32, Seed: 77}
	a1, a2 := NewSampler(cfg), NewSampler(cfg)
	b := NewSampler(cfg)
	for x := uint64(0); x < 2000; x++ {
		a1.Process(x)
		a2.Process(x)
	}
	for x := uint64(1500); x < 4000; x++ {
		b.Process(x)
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSampler(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Merge(decoded); err != nil {
		t.Fatal(err)
	}
	if err := a2.Merge(b); err != nil {
		t.Fatal(err)
	}
	x, _ := a1.MarshalBinary()
	y, _ := a2.MarshalBinary()
	if string(x) != string(y) {
		t.Error("merge of decoded sketch differs from in-memory merge")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := buildSampler(1, 1000)
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		var d Sampler
		err := d.UnmarshalBinary(data)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}

	check("empty", nil)
	check("short", good[:5])
	check("truncated entries", good[:len(good)-1])

	mutate := func(idx int, val byte) []byte {
		c := append([]byte(nil), good...)
		c[idx] = val
		return c
	}
	check("bad magic", mutate(0, 'X'))
	check("bad version", mutate(2, 99))
	check("bad family", mutate(3, 200))
	check("bad raise", mutate(4, 200))
	check("seed flip", mutate(7, good[7]^0xff)) // entries no longer match level

	check("trailing bytes", append(append([]byte(nil), good...), 0, 0))
}

func TestUnmarshalRejectsLevelViolation(t *testing.T) {
	// Hand-build an encoding that claims a high level but contains a
	// label whose recomputed level is below it.
	s := NewSampler(Config{Capacity: 4, Seed: 123})
	for x := uint64(0); x < 200; x++ {
		s.Process(x)
	}
	if s.level == 0 {
		t.Fatal("test needs a raised level")
	}
	// Find a label with level 0 under this hash.
	h := s.cfg.Family.New(s.cfg.Seed)
	var bad uint64
	found := false
	for x := uint64(0); x < 1000; x++ {
		if hashing.GeometricLevel(h.Hash(x)) == 0 {
			bad, found = x, true
			break
		}
	}
	if !found {
		t.Skip("no level-0 label found (astronomically unlikely)")
	}
	s.insert(bad, 1, 1) // lv 1: level 0
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sampler
	if err := d.UnmarshalBinary(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("level-violating encoding accepted (err=%v)", err)
	}
}

func TestSizeBytesGrowsWithCapacity(t *testing.T) {
	small := NewSampler(Config{Capacity: 16, Seed: 1})
	large := NewSampler(Config{Capacity: 1024, Seed: 1})
	for x := uint64(0); x < 100000; x++ {
		small.Process(x)
		large.Process(x)
	}
	if small.SizeBytes() >= large.SizeBytes() {
		t.Errorf("sizes: capacity 16 -> %dB, capacity 1024 -> %dB", small.SizeBytes(), large.SizeBytes())
	}
	// The paper's point: the sketch is tiny compared to the 100k
	// distinct labels (even 8-byte labels would be 800 KB).
	if large.SizeBytes() > 32*1024 {
		t.Errorf("sketch unexpectedly large: %dB", large.SizeBytes())
	}
}
