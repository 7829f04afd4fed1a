package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// extended slice. b grows at most once, by the encoding's exact length.
func (s *Sampler) AppendBinary(b []byte) ([]byte, error) {
	scratch := make([]uint64, 2*s.n)
	labels, weights := scratch[:s.n], scratch[s.n:]
	s.sortEntries(labels, weights)
	b = slices.Grow(b, s.encodedLen(labels, weights))
	return s.appendEncoding(b, labels, weights), nil
}

// sortEntries writes s's retained labels to labels in increasing order
// and each one's weight to weights at the same index; both are s.n
// long. It is the one place a sample is sorted: slot positions are
// random per process, and an encoding must not depend on them.
func (s *Sampler) sortEntries(labels, weights []uint64) {
	n := 0
	for k := range s.table {
		b := &s.table[k]
		for j, lv := range b.lv {
			if lv != 0 {
				labels[n] = b.label[j]
				n++
			}
		}
	}
	slices.Sort(labels)
	for n, label := range labels {
		i, _ := s.find(label)
		b, j := s.at(i)
		weights[n] = b.weight[j]
	}
}

// samplerFixedLen is the length of a sampler encoding's magic,
// version, family, raise policy and seed.
const samplerFixedLen = 13

// encodedLen returns the length of s's encoding, given its entries as
// sortEntries writes them.
func (s *Sampler) encodedLen(labels, weights []uint64) int {
	n := samplerFixedLen + uvarintLen(uint64(s.cfg.Capacity)) + uvarintLen(uint64(s.level)) + uvarintLen(uint64(len(labels)))
	prev := uint64(0)
	for j, label := range labels {
		n += uvarintLen(label-prev) + uvarintLen(weights[j])
		prev = label
	}
	return n
}

// appendEncoding appends s's encoding to b, given its entries as
// sortEntries writes them.
func (s *Sampler) appendEncoding(b []byte, labels, weights []uint64) []byte {
	b = append(b, wireMagic0, wireMagic1, wireVersion, byte(s.cfg.Family), byte(s.cfg.Raise))
	b = binary.LittleEndian.AppendUint64(b, s.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(s.cfg.Capacity))
	b = binary.AppendUvarint(b, uint64(s.level))
	b = binary.AppendUvarint(b, uint64(len(labels)))
	prev := uint64(0)
	for j, label := range labels {
		b = binary.AppendUvarint(b, label-prev)
		b = binary.AppendUvarint(b, weights[j])
		prev = label
	}
	return b
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
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
	if len(data) < samplerFixedLen {
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
	seed := binary.LittleEndian.Uint64(data[5:samplerFixedLen])
	d := decoder{buf: data[samplerFixedLen:]}

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

// decodedSize returns the table length of a copy decoded from h: room
// for twice its entries, capped at Capacity+1 (where a merge raises)
// and never below its count. A copy decoded from a near-capacity
// sample, as a coordinator's group is, merges up to Capacity+1 entries
// without growing, and the table is bounded by the entry count, never
// by the declared capacity alone, so a forged header with a huge
// capacity cannot make the decoder allocate gigabytes before any
// validation fails.
func decodedSize(h samplerHeader) int {
	return tableSize(max(h.count, min(h.cfg.Capacity+1, 2*h.count)))
}

// scanEntries reads count encoded entries of copy s in label order
// and validates each as it goes: labels strictly increase without
// overflowing, every level is at least s's declared level, and no byte
// trails. It is the one entry decoder. With out nil it places each
// entry in s's table, which must be empty and hold at least count
// entries (a decode); otherwise s holds no table and each entry is
// written to out[:count] (a stage, see stageRun).
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
			out[i] = entry{label: label, weight: weight, lv: uint8(lvl) + 1}
			continue
		}
		s.place(label, weight, uint8(lvl)+1)
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
	var tmp Sampler
	tmp.init(h.cfg, h.level, newTable(decodedSize(h)))
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
