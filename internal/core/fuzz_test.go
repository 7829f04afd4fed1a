package core

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the wire decoders. The seed corpus runs on
// every `go test`; `go test -fuzz=FuzzSamplerUnmarshal` explores
// further. The invariant under test: arbitrary bytes either fail to
// decode or produce a sketch that re-encodes exactly as the reference
// encoder (encode_test.go) encodes it and is fully usable (process,
// estimate, re-encode, merge with itself).
func FuzzSamplerUnmarshal(f *testing.F) {
	seed := buildSampler(3, 500)
	enc, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte("GT"))
	f.Add(enc[:len(enc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sampler
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		if enc, _ := s.MarshalBinary(); !bytes.Equal(enc, referenceSamplerEncoding(&s, nil)) {
			t.Fatalf("decoded sampler re-encodes unlike the reference encoder")
		}
		s.Process(42)
		_ = s.EstimateDistinct()
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var s2 Sampler
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decoded sketch does not round-trip: %v", err)
		}
		if err := s.Merge(&s2); err != nil {
			t.Fatalf("self-merge failed: %v", err)
		}
	})
}

func FuzzEstimatorUnmarshal(f *testing.F) {
	e := NewEstimator(EstimatorConfig{Capacity: 16, Copies: 3, Seed: 1})
	for x := uint64(0); x < 300; x++ {
		e.Process(x)
	}
	enc, err := e.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add(enc[:len(enc)-2])
	// A copy seed that is not derived from the master seed: the
	// forgery that used to open cleanly and poison a merge group.
	f.Add(forgeCopy(f, enc, 0, func(h []byte) { h[5] ^= 1 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Estimator
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		if enc, _ := d.MarshalBinary(); !bytes.Equal(enc, referenceEstimatorEncoding(&d)) {
			t.Fatalf("decoded estimator re-encodes unlike the reference encoder")
		}
		d.Process(7)
		_ = d.EstimateDistinct()
		if _, err := d.MarshalBinary(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
