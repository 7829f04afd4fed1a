package fm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sketch"
)

// ErrCorrupt is returned when decoding a malformed sketch.
var ErrCorrupt = fmt.Errorf("fm: corrupt sketch encoding: %w", sketch.ErrCorrupt)

// Wire format: magic "FM1", weak flag byte, 8-byte seed, uvarint
// numMaps, then numMaps 8-byte bitmaps.

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := []byte{'F', 'M', '1', boolByte(s.weak)}
	b = binary.LittleEndian.AppendUint64(b, s.seed)
	b = binary.AppendUvarint(b, uint64(s.numMaps))
	for _, bm := range s.bitmaps {
		b = binary.LittleEndian.AppendUint64(b, bm)
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing
// s's state entirely.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 13 || data[0] != 'F' || data[1] != 'M' || data[2] != '1' {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if data[3] > 1 {
		return fmt.Errorf("%w: bad weak flag %d", ErrCorrupt, data[3])
	}
	weak := data[3] == 1
	seed := binary.LittleEndian.Uint64(data[4:12])
	rest := data[12:]
	numMaps, n := binary.Uvarint(rest)
	if n <= 0 || numMaps == 0 || numMaps > 1<<24 {
		return fmt.Errorf("%w: bad numMaps", ErrCorrupt)
	}
	rest = rest[n:]
	if uint64(len(rest)) != 8*numMaps {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrCorrupt, len(rest), 8*numMaps)
	}
	bitmaps := make([]uint64, numMaps)
	for i := range bitmaps {
		bitmaps[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	*s = Sketch{seed: seed, weak: weak, numMaps: int(numMaps), bitmaps: bitmaps}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
