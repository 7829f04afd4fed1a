package kmv

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(64, 9)
	for x := uint64(0); x < 5000; x++ {
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
	if got.Estimate() != s.Estimate() {
		t.Error("estimate changed across round trip")
	}
	if len(got.vals) != len(s.vals) {
		t.Errorf("retained %d values vs %d", len(got.vals), len(s.vals))
	}
	if err := got.Merge(s); err != nil {
		t.Errorf("decoded sketch cannot merge with original: %v", err)
	}
	// Canonical: re-encoding gives identical bytes.
	enc2, _ := got.MarshalBinary()
	if string(enc) != string(enc2) {
		t.Error("encoding not canonical")
	}
}

func TestMarshalPartial(t *testing.T) {
	s := New(100, 2)
	for x := uint64(0); x < 10; x++ {
		s.Process(x)
	}
	enc, _ := s.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != 10 {
		t.Errorf("partial estimate = %v, want 10", got.Estimate())
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New(8, 1)
	for x := uint64(0); x < 100; x++ {
		s.Process(x)
	}
	enc, _ := s.MarshalBinary()
	var d Sketch
	for name, data := range map[string][]byte{
		"empty":     nil,
		"magic":     append([]byte("XXX"), enc[3:]...),
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0, 0),
		"count":     forgedCountPayload(),
		"wrapping":  wrappingDeltaPayload(),
	} {
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// forgedCountPayload is a 20-byte encoding whose header declares 2^22
// retained values (k = 2^22) but carries only one byte of them.
func forgedCountPayload() []byte {
	b := []byte{'K', 'V', '1'}
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.AppendUvarint(b, 1<<22)
	b = binary.AppendUvarint(b, 1<<22)
	return append(b, 0x01)
}

// wrappingDeltaPayload holds two values whose second delta wraps past
// 2^64: 2^64-5 followed by +10, which would decode to 5 and re-encode
// to different bytes.
func wrappingDeltaPayload() []byte {
	b := []byte{'K', 'V', '1'}
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.AppendUvarint(b, 8)
	b = binary.AppendUvarint(b, 2)
	b = binary.AppendUvarint(b, math.MaxUint64-4)
	return binary.AppendUvarint(b, 10)
}

func TestForgedCountAllocatesLittle(t *testing.T) {
	data := forgedCountPayload()
	if len(data) != 20 {
		t.Fatalf("forged payload is %d bytes, want 20", len(data))
	}
	// The refusal must come before anything is sized by the declared
	// count: a few KiB per open at most, not ~42 B per declared value.
	const runs = 20
	var d Sketch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Errorf("refused open allocated %d B, want under 4 KiB", per)
	}
}
