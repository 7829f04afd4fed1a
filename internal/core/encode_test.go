package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// referenceSamplerEncoding is the direct sampler encoder, kept as the
// reference: collect the labels, sort them, look each one's weight up
// in the table and append, growing b as it goes. The production
// encoder, which sizes its output first, must agree with it byte for
// byte.
func referenceSamplerEncoding(s *Sampler, b []byte) []byte {
	var labels []uint64
	for _, e := range retained(s) {
		labels = append(labels, e.label)
	}
	slices.Sort(labels)
	b = append(b, wireMagic0, wireMagic1, wireVersion, byte(s.cfg.Family), byte(s.cfg.Raise))
	b = binary.LittleEndian.AppendUint64(b, s.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(s.cfg.Capacity))
	b = binary.AppendUvarint(b, uint64(s.level))
	b = binary.AppendUvarint(b, uint64(len(labels)))
	prev := uint64(0)
	for _, label := range labels {
		b = binary.AppendUvarint(b, label-prev)
		prev = label
		i, _ := s.find(label)
		slot, j := s.at(i)
		b = binary.AppendUvarint(b, slot.weight[j])
	}
	return b
}

// referenceEstimatorEncoding is the direct estimator encoder: each
// copy encoded on its own by referenceSamplerEncoding, then
// length-prefixed.
func referenceEstimatorEncoding(e *Estimator) []byte {
	b := []byte{wireMagic0, wireMagic1, wireVersion}
	b = binary.LittleEndian.AppendUint64(b, e.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(len(e.copies)))
	for i := range e.copies {
		enc := referenceSamplerEncoding(&e.copies[i], nil)
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	return b
}

// checkSamplerEncoding fails unless s's encoding, on its own and
// appended after a prefix, equals the reference encoder's.
func checkSamplerEncoding(t *testing.T, what string, s *Sampler) {
	t.Helper()
	want := referenceSamplerEncoding(s, nil)
	got, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	prefix := []byte("prefix")
	got, err = s.AppendBinary(slices.Clone(prefix))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, referenceSamplerEncoding(s, prefix)) {
		t.Fatalf("%s: AppendBinary after a prefix differs from the reference", what)
	}
}

// checkEstimatorEncoding fails unless e encodes as the reference
// encoder does.
func checkEstimatorEncoding(t *testing.T, what string, e *Estimator) {
	t.Helper()
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := referenceEstimatorEncoding(e); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// feed gives s n labels from a universe of the given size (0 for the
// whole uint64 range), weighted 1, small or full-width by turns.
func feed(r *hashing.Xoshiro256, s interface{ ProcessWeighted(label, value uint64) }, n int, universe uint64) {
	for i := 0; i < n; i++ {
		label := r.Uint64()
		if universe != 0 {
			label = r.Uint64n(universe)
		}
		weight := uint64(1)
		switch i % 3 {
		case 1:
			weight = 1 + r.Uint64n(300)
		case 2:
			weight = r.Uint64()
		}
		s.ProcessWeighted(label, weight)
	}
}

// parked returns a sampler in the parked state raise leaves when even
// the maximum level overflows: at MaxLevel, holding more than Capacity
// entries.
func parked(cfg Config, n int) *Sampler {
	s := NewSampler(cfg)
	s.level = hashing.MaxLevel
	for i := 0; i < n; i++ {
		s.insert(uint64(i)*0x9e3779b97f4a7c15, uint64(i+1), hashing.MaxLevel+1)
	}
	return s
}

// TestEncodingMatchesReference compares the encoders with the
// reference encoders byte for byte: every family, weighted entries,
// small and full-width labels, empty samplers, capacity 1 and the
// parked overflow state.
func TestEncodingMatchesReference(t *testing.T) {
	r := hashing.NewXoshiro256(23)
	universes := []uint64{0, 1 << 12, 1 << 40}
	for trial := 0; trial < 90; trial++ {
		cfg := Config{Capacity: 1 + r.Intn(300), Seed: r.Uint64(), Family: FamilyKind(trial % 3), Raise: RaisePolicy(trial / 3 % 2)}
		if trial%10 == 0 {
			cfg.Capacity = 1
		}
		s := NewSampler(cfg)
		checkSamplerEncoding(t, "empty sampler", s)
		feed(r, s, r.Intn(5000), universes[trial%len(universes)])
		checkSamplerEncoding(t, "sampler", s)

		ecfg := EstimatorConfig{Capacity: cfg.Capacity, Copies: 1 + r.Intn(7), Seed: cfg.Seed, Family: cfg.Family, Raise: cfg.Raise}
		e := NewEstimator(ecfg)
		checkEstimatorEncoding(t, "empty estimator", e)
		feed(r, e, r.Intn(5000), universes[trial%len(universes)])
		checkEstimatorEncoding(t, "estimator", e)
	}

	cfg := Config{Capacity: 3, Seed: 5}
	p := parked(cfg, 9)
	if p.n <= cfg.Capacity {
		t.Fatalf("parked sampler holds %d entries, want more than %d", p.n, cfg.Capacity)
	}
	checkSamplerEncoding(t, "parked sampler", p)
	e := NewEstimator(EstimatorConfig{Capacity: cfg.Capacity, Copies: 3, Seed: 5})
	for i := range e.copies {
		c := parked(e.copies[i].cfg, 5+i)
		e.copies[i] = *c
	}
	checkEstimatorEncoding(t, "parked estimator", e)
}

// TestGTEncodeAllocatesExactly pins a gt encode at the registry's
// configuration to exactly-sized allocations. The payload's capacity
// is its length: it was reserved once, at its exact size, and neither
// grown nor reserved by an estimate. So is the envelope's: it is
// allocated once, for the header and the marshaled payload, and never
// grown.
func TestGTEncodeAllocatesExactly(t *testing.T) {
	info, ok := sketch.LookupName("gt")
	if !ok {
		t.Fatal("gt kind not registered")
	}
	r := hashing.NewXoshiro256(31)
	for _, n := range []int{0, 100, 1000, 4096, 30000} {
		for _, universe := range []uint64{0, 1 << 16, 1 << 24} {
			e := info.New(0.1, 42).(*Estimator)
			feed(r, e, n, universe)
			payload, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if cap(payload) != len(payload) {
				t.Errorf("%d labels from universe %d: payload of %d bytes has capacity %d", n, universe, len(payload), cap(payload))
			}
			env, err := sketch.Envelope(e)
			if err != nil {
				t.Fatal(err)
			}
			if cap(env) != len(env) {
				t.Errorf("%d labels from universe %d: envelope of %d bytes has capacity %d", n, universe, len(env), cap(env))
			}
		}
	}
}
