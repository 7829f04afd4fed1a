package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/hashing"
)

// Wire format (little endian, varint for counts):
//
//	magic   "GT"            2 bytes
//	version 1               1 byte
//	family  FamilyKind      1 byte
//	raise   RaisePolicy     1 byte
//	seed                    8 bytes
//	capacity                uvarint
//	level                   uvarint
//	count                   uvarint
//	entries, sorted by label:
//	    label delta         uvarint (first label absolute)
//	    weight              uvarint
//
// Entry levels are NOT serialized: the decoder recomputes them from
// the shared hash function, which both keeps the message at the
// O(c·log m) bits the paper charges for communication and lets the
// decoder verify that every entry is consistent with the declared
// level (a corrupted or uncoordinated message is rejected).

const (
	wireMagic0  = 'G'
	wireMagic1  = 'T'
	wireVersion = 1
)

// MarshalBinary encodes the sampler. The encoding is deterministic
// (entries are sorted), so equal samplers encode identically.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(nil)
}

// AppendBinary appends the sampler's encoding to b and returns the
// extended slice. It is the one place the sample is sorted.
func (s *Sampler) AppendBinary(b []byte) ([]byte, error) {
	labels := s.Sample()
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
		b = binary.AppendUvarint(b, s.table[i].weight)
	}
	return b, nil
}

// samplerHeader is the fixed part of a sampler encoding.
type samplerHeader struct {
	cfg   Config
	level int
	count int
}

// parseHeader validates the header of a sampler encoding and returns
// it with the entry bytes that follow. It returns ErrCorrupt (wrapped
// with detail) if the header is malformed.
func parseHeader(data []byte) (samplerHeader, []byte, error) {
	var h samplerHeader
	if len(data) < 13 {
		return h, nil, fmt.Errorf("%w: message too short (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != wireMagic0 || data[1] != wireMagic1 {
		return h, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:2])
	}
	if data[2] != wireVersion {
		return h, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[2])
	}
	family := FamilyKind(data[3])
	if !family.valid() {
		return h, nil, fmt.Errorf("%w: unknown hash family %d", ErrCorrupt, data[3])
	}
	raise := RaisePolicy(data[4])
	if raise != RaiseIncrement && raise != RaiseJump {
		return h, nil, fmt.Errorf("%w: unknown raise policy %d", ErrCorrupt, data[4])
	}
	seed := binary.LittleEndian.Uint64(data[5:13])
	d := decoder{buf: data[13:]}

	capacity, err := d.uvarint("capacity")
	if err != nil {
		return h, nil, err
	}
	if capacity == 0 || capacity > 1<<32 {
		return h, nil, fmt.Errorf("%w: implausible capacity %d", ErrCorrupt, capacity)
	}
	level, err := d.uvarint("level")
	if err != nil {
		return h, nil, err
	}
	if level > hashing.MaxLevel {
		return h, nil, fmt.Errorf("%w: level %d out of range", ErrCorrupt, level)
	}
	count, err := d.uvarint("count")
	if err != nil {
		return h, nil, err
	}
	// A valid sampler can exceed capacity only in the degenerate
	// parked-at-MaxLevel state; allow a small slack, reject nonsense.
	if count > capacity*2+16 {
		return h, nil, fmt.Errorf("%w: count %d exceeds capacity %d", ErrCorrupt, count, capacity)
	}
	// Every entry takes at least two bytes (label + weight varints),
	// so a count beyond half the remaining payload is forged; checking
	// here keeps the table allocation proportional to the input size.
	if count > uint64(len(d.buf))/2+1 {
		return h, nil, fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, count)
	}
	h.cfg = Config{Capacity: int(capacity), Seed: seed, Family: family, Raise: raise}
	h.level = int(level)
	h.count = int(count)
	return h, d.buf, nil
}

// scanEntries reads count encoded entries of copy s in label order
// and validates each as it goes: labels strictly increase without
// overflowing, every level is at least s's declared level, and no byte
// trails. It is the one entry decoder. With out nil it places each
// entry in s's table, which must be empty and sized for count entries
// (a decode); otherwise s holds no table and each entry is written to
// out[:count] (a stage, see stageRun).
func (s *Sampler) scanEntries(body []byte, count int, out []entry) error {
	d := decoder{buf: body}
	var label uint64
	for i := 0; i < count; i++ {
		delta, err := d.uvarint("label")
		if err != nil {
			return err
		}
		if i > 0 {
			if delta == 0 {
				return fmt.Errorf("%w: duplicate label in encoding", ErrCorrupt)
			}
			if label+delta < label {
				return fmt.Errorf("%w: label overflow", ErrCorrupt)
			}
		}
		label += delta
		weight, err := d.uvarint("weight")
		if err != nil {
			return err
		}
		lvl := s.levelOf(label)
		if lvl < s.level {
			return fmt.Errorf("%w: label %d has level %d below sketch level %d", ErrCorrupt, label, lvl, s.level)
		}
		if out != nil {
			out[i] = entry{label: label, weight: weight, lv: int32(lvl) + 1}
			continue
		}
		s.place(label, weight, int32(lvl)+1)
		s.weightSum += weight
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	if out == nil {
		s.n = count
	}
	return nil
}

// UnmarshalBinary decodes a sampler previously encoded with
// MarshalBinary, replacing s's state entirely. It returns ErrCorrupt
// (wrapped with detail) if the message is malformed or internally
// inconsistent.
func (s *Sampler) UnmarshalBinary(data []byte) error {
	h, body, err := parseHeader(data)
	if err != nil {
		return err
	}
	// The table is sized by the actual entry count, never by the
	// declared capacity — otherwise a forged header with a huge
	// capacity makes the decoder allocate gigabytes before any
	// validation fails.
	var tmp Sampler
	tmp.init(h.cfg, h.level, make([]entry, tableSize(h.count)))
	if err := tmp.scanEntries(body, h.count, nil); err != nil {
		return err
	}
	*s = tmp
	return nil
}

// DecodeSampler decodes a sampler from data into a fresh value.
func DecodeSampler(data []byte) (*Sampler, error) {
	s := &Sampler{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// SizeBytes returns the length of the sampler's wire encoding — the
// quantity charged as per-party communication in experiments E4/E6.
func (s *Sampler) SizeBytes() int {
	b, _ := s.AppendBinary(nil)
	return len(b)
}

type decoder struct {
	buf []byte
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	d.buf = d.buf[n:]
	return v, nil
}
