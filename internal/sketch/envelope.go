package sketch

import (
	"encoding/binary"
	"fmt"
)

// Envelope format: every sketch that leaves its process — a wire
// push, a distsim site message, a checkpoint — is wrapped in a fixed
// self-describing header so the receiver can route it to the right
// decoder and refuse incompatible configurations before touching the
// payload:
//
//	offset  size  field
//	0       2     magic "SK"
//	2       1     kind tag (Kind)
//	3       1     payload format version (KindInfo.Version)
//	4       8     config digest, uint64 little endian (Sketch.Digest)
//	12      n     payload (Sketch.MarshalBinary)
//
// The digest is redundant with the payload's own configuration fields
// — deliberately: Open cross-checks the decoded sketch's Digest
// against the header and refuses on disagreement, so a truncated or
// spliced payload cannot masquerade as a compatible sketch even when
// it parses.
const (
	// EnvelopeMagic0 and EnvelopeMagic1 open every envelope.
	EnvelopeMagic0 = 'S'
	EnvelopeMagic1 = 'K'
	// EnvelopeHeaderSize is the fixed envelope header length in bytes.
	EnvelopeHeaderSize = 12
)

// AppendEnvelope appends s's envelope (header + payload) to b and
// returns the extended slice.
func AppendEnvelope(b []byte, s Sketch) ([]byte, error) {
	payload, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	info, ok := Lookup(s.Kind())
	if !ok {
		return nil, fmt.Errorf("%w: %d (kind not registered)", ErrUnknownKind, uint8(s.Kind()))
	}
	b = append(b, EnvelopeMagic0, EnvelopeMagic1, byte(info.Kind), info.Version)
	b = binary.LittleEndian.AppendUint64(b, s.Digest())
	return append(b, payload...), nil
}

// Envelope returns a fresh envelope encoding of s.
func Envelope(s Sketch) ([]byte, error) {
	return AppendEnvelope(make([]byte, 0, EnvelopeHeaderSize+64), s)
}

// PeekKind reads the kind tag from an envelope without decoding the
// payload. It reports false when b is not even a plausible envelope.
func PeekKind(b []byte) (Kind, bool) {
	if len(b) < EnvelopeHeaderSize || b[0] != EnvelopeMagic0 || b[1] != EnvelopeMagic1 {
		return 0, false
	}
	return Kind(b[2]), true
}

// PeekHeader reads the kind tag and config digest from an envelope
// without decoding the payload — enough to route the envelope (a
// merge group is identified by exactly this pair) without paying for
// a decode. It reports false when b is not even a plausible envelope.
func PeekHeader(b []byte) (kind Kind, digest uint64, ok bool) {
	if len(b) < EnvelopeHeaderSize || b[0] != EnvelopeMagic0 || b[1] != EnvelopeMagic1 {
		return 0, 0, false
	}
	return Kind(b[2]), binary.LittleEndian.Uint64(b[4:12]), true
}

// Open decodes an envelope into a fresh sketch. It validates the
// magic, routes by kind through the registry, checks the format
// version, decodes the payload, and finally cross-checks the decoded
// sketch's configuration digest against the header. Every failure is
// typed: ErrUnknownKind for an unregistered tag, ErrCorrupt for
// everything structurally wrong.
func Open(b []byte) (Sketch, error) {
	if len(b) < EnvelopeHeaderSize {
		return nil, fmt.Errorf("%w: envelope %d bytes, need %d-byte header", ErrCorrupt, len(b), EnvelopeHeaderSize)
	}
	if b[0] != EnvelopeMagic0 || b[1] != EnvelopeMagic1 {
		return nil, fmt.Errorf("%w: bad envelope magic %q", ErrCorrupt, b[:2])
	}
	kind := Kind(b[2])
	info, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, b[2])
	}
	if b[3] != info.Version {
		return nil, fmt.Errorf("%w: %s payload version %d, this build speaks %d", ErrCorrupt, info.Name, b[3], info.Version)
	}
	digest := binary.LittleEndian.Uint64(b[4:12])
	s, err := info.Decode(b[EnvelopeHeaderSize:])
	if err != nil {
		return nil, err
	}
	if s.Kind() != kind {
		return nil, fmt.Errorf("%w: %s payload decoded to kind %s", ErrCorrupt, info.Name, s.Kind())
	}
	if got := s.Digest(); got != digest {
		return nil, fmt.Errorf("%w: %s config digest %016x, envelope says %016x", ErrCorrupt, info.Name, got, digest)
	}
	return s, nil
}
