package ll

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/sketch"
)

// ErrCorrupt is returned when decoding a malformed sketch.
var ErrCorrupt = fmt.Errorf("ll: corrupt sketch encoding: %w", sketch.ErrCorrupt)

// Wire format: magic "LL1", weak flag byte, 8-byte seed, uvarint
// register count, then one byte per register.

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := []byte{'L', 'L', '1', boolByte(s.weak)}
	b = binary.LittleEndian.AppendUint64(b, s.seed)
	b = binary.AppendUvarint(b, uint64(s.numRegs))
	b = append(b, s.regs...)
	return b, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing
// s's state entirely.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 13 || data[0] != 'L' || data[1] != 'L' || data[2] != '1' {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if data[3] > 1 {
		return fmt.Errorf("%w: bad weak flag", ErrCorrupt)
	}
	weak := data[3] == 1
	seed := binary.LittleEndian.Uint64(data[4:12])
	rest := data[12:]
	numRegs, n := binary.Uvarint(rest)
	if n <= 0 || numRegs < 16 || numRegs > 1<<26 {
		return fmt.Errorf("%w: bad register count", ErrCorrupt)
	}
	rest = rest[n:]
	if uint64(len(rest)) != numRegs {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrCorrupt, len(rest), numRegs)
	}
	for i, r := range rest {
		if r > 63 {
			return fmt.Errorf("%w: register %d value %d out of range", ErrCorrupt, i, r)
		}
	}
	*s = Sketch{numRegs: int(numRegs), seed: seed, weak: weak, regs: bytes.Clone(rest)}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
