package bjkst

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrCorrupt is returned when decoding a malformed sketch.
var ErrCorrupt = fmt.Errorf("bjkst: corrupt sketch encoding: %w", sketch.ErrCorrupt)

// Wire format: magic "BJ1", 8-byte seed, uvarint capacity, uvarint
// level z, uvarint bucket count, then (fingerprint uint32 LE, level
// byte) pairs in strictly ascending fingerprint order.

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := []byte{'B', 'J', '1'}
	b = binary.LittleEndian.AppendUint64(b, s.seed)
	b = binary.AppendUvarint(b, uint64(s.capacity))
	b = binary.AppendUvarint(b, uint64(s.z))
	b = binary.AppendUvarint(b, uint64(len(s.buckets)))
	for _, e := range s.buckets {
		b = binary.LittleEndian.AppendUint32(b, uint32(e>>8))
		b = append(b, byte(e))
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing
// s's state entirely. It accepts only what Process and Merge produce:
// z and every level at most hashing.MaxLevel, no level below z, and
// fingerprints below the capacity's fingerprint range and strictly
// ascending, so every accepted payload re-encodes to itself.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || data[0] != 'B' || data[1] != 'J' || data[2] != '1' {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	rest := data[11:]
	capacity, n := binary.Uvarint(rest)
	if n <= 0 || capacity == 0 || capacity > 1<<30 {
		return fmt.Errorf("%w: bad capacity", ErrCorrupt)
	}
	rest = rest[n:]
	z, n := binary.Uvarint(rest)
	if n <= 0 || z > hashing.MaxLevel {
		return fmt.Errorf("%w: bad level", ErrCorrupt)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > capacity {
		return fmt.Errorf("%w: bad bucket count", ErrCorrupt)
	}
	rest = rest[n:]
	if uint64(len(rest)) != 5*count {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrCorrupt, len(rest), 5*count)
	}
	// The buckets are sized by the actual count: a forged header with
	// a huge capacity must not trigger a huge allocation. All
	// capacity-derived parameters (the fingerprint range in particular)
	// must still come from the declared capacity so the decoded sketch
	// stays coherent with its encoder.
	printMod := fingerprintMod(int(capacity))
	buckets := make([]uint64, count)
	for i := range buckets {
		fp, lvl := uint64(binary.LittleEndian.Uint32(rest[5*i:])), rest[5*i+4]
		if lvl > hashing.MaxLevel || uint64(lvl) < z {
			return fmt.Errorf("%w: bucket level %d inconsistent with z=%d", ErrCorrupt, lvl, z)
		}
		if fp >= printMod || (i > 0 && fp <= buckets[i-1]>>8) {
			return fmt.Errorf("%w: fingerprint %d out of range or out of order", ErrCorrupt, fp)
		}
		buckets[i] = fp<<8 | uint64(lvl)
	}
	sm := hashing.NewSplitMix64(seed)
	*s = Sketch{
		capacity:  int(capacity),
		seed:      seed,
		levelHash: hashing.NewPairwise(sm.Next()),
		printHash: hashing.NewPairwise(sm.Next()),
		printMod:  printMod,
		z:         int(z),
		buckets:   buckets,
	}
	return nil
}
