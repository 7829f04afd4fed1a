package bjkst

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/hashing"
)

func TestExactSmall(t *testing.T) {
	s := New(256, 1)
	for x := uint64(0); x < 100; x++ {
		s.Process(x)
		s.Process(x)
	}
	if s.z != 0 {
		t.Fatalf("level = %d, want 0", s.z)
	}
	// Fingerprint collisions can shave a little; allow tiny slack.
	if got := s.Estimate(); got < 97 || got > 100 {
		t.Errorf("estimate = %v, want ~100", got)
	}
}

func TestAccuracy(t *testing.T) {
	const truth = 100000
	s := New(1024, 42)
	for x := uint64(0); x < truth; x++ {
		s.Process(x)
	}
	got := s.Estimate()
	if rel := math.Abs(got-truth) / truth; rel > 0.12 {
		t.Errorf("estimate %.0f vs %d: rel err %.3f", got, truth, rel)
	}
}

func TestCapacityRespected(t *testing.T) {
	s := New(64, 3)
	for x := uint64(0); x < 100000; x++ {
		s.Process(x)
	}
	if len(s.buckets) > 64 {
		t.Errorf("%d buckets exceed capacity 64", len(s.buckets))
	}
	if s.z == 0 {
		t.Error("level never raised on a large stream")
	}
}

// TestMergeAgreesWithUnion: a merge must leave exactly the state of
// one sketch that processed both streams, byte for byte — with either
// operand decoded from its encoding, and through further Process
// calls after the merge. A fingerprint collision keeps the higher
// level on both paths, so collisions cannot make them differ.
func TestMergeAgreesWithUnion(t *testing.T) {
	r := hashing.NewXoshiro256(5)
	feed := func(n int, universe uint64, sks ...*Sketch) {
		for i := 0; i < n; i++ {
			x := r.Uint64n(universe)
			for _, s := range sks {
				s.Process(x)
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		capacity, seed := 1+r.Intn(64), r.Uint64()
		universe := 1 + r.Uint64n(5000)
		a, b, both := New(capacity, seed), New(capacity, seed), New(capacity, seed)
		feed(r.Intn(3000), universe, a, both)
		feed(r.Intn(3000), universe, b, both)
		if trial%2 == 1 {
			a = roundTrip(t, a)
		}
		if trial%3 == 1 {
			b = roundTrip(t, b)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		feed(r.Intn(300), 2*universe, a, both)
		got, _ := a.MarshalBinary()
		want, _ := both.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (capacity %d): merge differs from processing the union (z %d vs %d, %d vs %d buckets)",
				trial, capacity, a.z, both.z, len(a.buckets), len(both.buckets))
		}
	}
}

// roundTrip returns s decoded from its own encoding.
func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	return &d
}

func TestMergeMismatch(t *testing.T) {
	a := New(64, 1)
	if err := a.Merge(New(32, 1)); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if err := a.Merge(New(64, 2)); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestDuplicateAndOrderInsensitive(t *testing.T) {
	labels := make([]uint64, 5000)
	r := hashing.NewXoshiro256(9)
	for i := range labels {
		labels[i] = r.Uint64n(2000)
	}
	a := New(64, 7)
	for _, x := range labels {
		a.Process(x)
	}
	for i := len(labels) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		labels[i], labels[j] = labels[j], labels[i]
	}
	b := New(64, 7)
	for _, x := range labels {
		b.Process(x)
		b.Process(x)
	}
	if a.Estimate() != b.Estimate() {
		t.Error("estimate depends on order/duplicates")
	}
}

func TestSizeBytes(t *testing.T) {
	s := New(64, 1)
	for x := uint64(0); x < 1000; x++ {
		s.Process(x)
	}
	if s.SizeBytes() != 5*len(s.buckets) {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), 5*len(s.buckets))
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	New(0, 1)
}

func TestTinyCapacityFingerprintRange(t *testing.T) {
	// capacity 2 -> mod would be 8; clamped to >= 64.
	s := New(2, 1)
	if s.printMod < 64 {
		t.Errorf("printMod = %d, want >= 64", s.printMod)
	}
	for x := uint64(0); x < 10000; x++ {
		s.Process(x)
	}
	if len(s.buckets) > 2 {
		t.Errorf("capacity 2 exceeded: %d", len(s.buckets))
	}
}

func TestHugeCapacityFingerprintRange(t *testing.T) {
	s := New(4096, 1)
	if s.printMod != 1<<32 {
		t.Errorf("printMod = %d, want 2^32", s.printMod)
	}
}
