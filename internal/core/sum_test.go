package core

import (
	"math"
	"testing"

	"repro/internal/hashing"
)

func TestSumSamplerExactSmall(t *testing.T) {
	s := NewSumSampler(Config{Capacity: 1024, Seed: 1}, 16)
	var truth uint64
	for x := uint64(0); x < 50; x++ {
		v := x%5 + 1
		if err := s.Process(x, v); err != nil {
			t.Fatal(err)
		}
		truth += v
	}
	if s.inner.level != 0 {
		t.Fatalf("level raised unexpectedly: %d", s.inner.level)
	}
	if got := s.EstimateSum(); got != float64(truth) {
		t.Errorf("pre-overflow sum = %v, want exactly %d", got, truth)
	}
}

func TestSumSamplerAccuracy(t *testing.T) {
	s := NewSumSampler(Config{Capacity: 4096, Seed: 7}, 64)
	r := hashing.NewXoshiro256(3)
	var truth float64
	const n = 20000
	for x := uint64(0); x < n; x++ {
		v := 1 + r.Uint64n(20)
		if err := s.Process(x, v); err != nil {
			t.Fatal(err)
		}
		if err := s.Process(x, v); err != nil { // duplicate occurrence
			t.Fatal(err)
		}
		truth += float64(v)
	}
	got := s.EstimateSum()
	if rel := math.Abs(got-truth) / truth; rel > 0.10 {
		t.Errorf("sum %.0f vs truth %.0f: rel err %.3f", got, truth, rel)
	}
}

func TestSumSamplerZeroValue(t *testing.T) {
	s := NewSumSampler(Config{Capacity: 64, Seed: 2}, 8)
	if err := s.Process(5, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.EstimateSum(); got != 0 {
		t.Errorf("zero-value label contributed %v", got)
	}
}

func TestSumSamplerBounds(t *testing.T) {
	s := NewSumSampler(Config{Capacity: 64, Seed: 2}, 8)
	if err := s.Process(1, 9); err == nil {
		t.Error("value above bound accepted")
	}
	if err := s.Process(MaxSumLabel+1, 1); err == nil {
		t.Error("label above bound accepted")
	}
	for _, bad := range []uint64{0, MaxSumValue + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSumSampler(maxValue=%d) did not panic", bad)
				}
			}()
			NewSumSampler(Config{Capacity: 4, Seed: 1}, bad)
		}()
	}
}

func TestSumSamplerMerge(t *testing.T) {
	cfg := Config{Capacity: 512, Seed: 11}
	a := NewSumSampler(cfg, 16)
	b := NewSumSampler(cfg, 16)
	both := NewSumSampler(cfg, 16)
	value := func(x uint64) uint64 { return x%7 + 1 }
	var truth float64
	for x := uint64(0); x < 4000; x++ {
		truth += float64(value(x))
	}
	// Overlapping halves: duplicates across parties must count once.
	for x := uint64(0); x < 2500; x++ {
		must(t, a.Process(x, value(x)))
		must(t, both.Process(x, value(x)))
	}
	for x := uint64(1500); x < 4000; x++ {
		must(t, b.Process(x, value(x)))
		must(t, both.Process(x, value(x)))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.EstimateSum() != both.EstimateSum() {
		t.Errorf("merged sum %v != union sum %v", a.EstimateSum(), both.EstimateSum())
	}
	if rel := math.Abs(a.EstimateSum()-truth) / truth; rel > 0.15 {
		t.Errorf("merged sum %.0f vs truth %.0f: rel %.3f", a.EstimateSum(), truth, rel)
	}
}

func TestSumSamplerMergeMismatch(t *testing.T) {
	a := NewSumSampler(Config{Capacity: 64, Seed: 1}, 16)
	b := NewSumSampler(Config{Capacity: 64, Seed: 1}, 8)
	if err := a.Merge(b); err == nil {
		t.Error("value-bound mismatch accepted")
	}
	c := NewSumSampler(Config{Capacity: 64, Seed: 2}, 16)
	if err := a.Merge(c); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
