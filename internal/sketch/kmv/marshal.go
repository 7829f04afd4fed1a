package kmv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrCorrupt is returned when decoding a malformed sketch.
var ErrCorrupt = fmt.Errorf("kmv: corrupt sketch encoding: %w", sketch.ErrCorrupt)

// Wire format: magic "KV1", 8-byte seed, uvarint k, uvarint retained
// count, then the retained hash values sorted ascending, delta-encoded
// as uvarints. (Sorting makes the encoding canonical: equal sketch
// states encode identically.)

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := []byte{'K', 'V', '1'}
	b = binary.LittleEndian.AppendUint64(b, s.seed)
	b = binary.AppendUvarint(b, uint64(s.k))
	b = binary.AppendUvarint(b, uint64(len(s.vals)))
	prev := uint64(0)
	for _, v := range s.vals {
		b = binary.AppendUvarint(b, v-prev)
		prev = v
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing
// s's state entirely.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || data[0] != 'K' || data[1] != 'V' || data[2] != '1' {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	rest := data[11:]
	k, n := binary.Uvarint(rest)
	if n <= 0 || k < 2 || k > 1<<30 {
		return fmt.Errorf("%w: bad k", ErrCorrupt)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > k {
		return fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	rest = rest[n:]
	// Every value takes at least one byte, so a count the payload
	// cannot hold is refused before anything is sized by it.
	if count > uint64(len(rest)) {
		return fmt.Errorf("%w: count %d exceeds the %d-byte payload", ErrCorrupt, count, len(rest))
	}
	vals := make([]uint64, count)
	var prev uint64
	for i := range vals {
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: truncated value %d", ErrCorrupt, i)
		}
		rest = rest[n:]
		v := prev + delta
		if i > 0 && v <= prev {
			// A zero delta repeats a value; a wrapping one breaks the
			// order. Either would re-encode to different bytes.
			return fmt.Errorf("%w: value %d not above its predecessor", ErrCorrupt, i)
		}
		vals[i], prev = v, v
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	*s = Sketch{k: int(k), seed: seed, hash: hashing.NewPairwise(seed), vals: vals}
	return nil
}
