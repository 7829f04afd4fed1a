package bjkst

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hashing"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(64, 9)
	for x := uint64(0); x < 20000; x++ {
		s.Process(x)
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() || got.z != s.z || len(got.buckets) != len(s.buckets) {
		t.Error("state changed across round trip")
	}
	if err := got.Merge(s); err != nil {
		t.Errorf("decoded sketch cannot merge with original: %v", err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New(8, 1)
	for x := uint64(0); x < 1000; x++ {
		s.Process(x)
	}
	enc, _ := s.MarshalBinary()
	// The first two buckets swapped: the same set, out of order.
	swapped := bytes.Clone(enc)
	first := len(enc) - 5*len(s.buckets)
	copy(swapped[first:], enc[first+5:first+10])
	copy(swapped[first+5:], enc[first:first+5])
	// One bucket at z = 0: header bytes 11–13 hold capacity 8, z and
	// the count, bytes 14–17 the bucket's fingerprint and byte 18 its
	// level.
	one := New(8, 1)
	one.Process(1)
	lone, _ := one.MarshalBinary()
	if len(lone) != 19 {
		t.Fatalf("one-bucket encoding is %d bytes, want 19", len(lone))
	}
	zHigh, levelHigh, fpHigh := bytes.Clone(lone), bytes.Clone(lone), bytes.Clone(lone)
	zHigh[12], zHigh[18] = hashing.MaxLevel+1, hashing.MaxLevel+1
	levelHigh[18] = hashing.MaxLevel + 1
	fpHigh[15] = 0x02 // fingerprint ≥ 512, capacity 8's range
	var d Sketch
	for name, data := range map[string][]byte{
		"empty":                  nil,
		"magic":                  append([]byte("XXX"), enc[3:]...),
		"truncated":              enc[:len(enc)-1],
		"trailing":               append(append([]byte{}, enc...), 0, 0, 0, 0, 0),
		"fingerprints unordered": swapped,
		"z above MaxLevel":       zHigh,
		"level above MaxLevel":   levelHigh,
		"fingerprint past range": fpHigh,
	} {
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
