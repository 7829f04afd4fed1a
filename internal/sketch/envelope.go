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
	info, digest, err := parseEnvelope(b)
	if err != nil {
		return nil, err
	}
	return decode(info, digest, b[EnvelopeHeaderSize:])
}

// Staged is an envelope that passed every check Open makes, held in
// the form its kind merges into a group: the kind's Run when it
// registers a Stage func, the decoded sketch otherwise.
type Staged struct {
	kind   Kind
	digest uint64
	run    Run
	sk     Sketch
}

// Stage validates an envelope exactly as Open does, refusing it with
// the same error classes, and returns it ready to merge into a group:
// a coordinator stages a push before logging it and outside every
// lock, and holds the group's lock only for MergeInto. A kind that
// registers a Stage func stages into its Run; any other kind stages by
// decoding.
func Stage(b []byte) (Staged, error) {
	info, digest, err := parseEnvelope(b)
	if err != nil {
		return Staged{}, err
	}
	st := Staged{kind: info.Kind, digest: digest}
	if info.Stage == nil {
		st.sk, err = decode(info, digest, b[EnvelopeHeaderSize:])
		return st, err
	}
	if st.run, err = info.Stage(b[EnvelopeHeaderSize:]); err != nil {
		return Staged{}, err
	}
	if err := checkIdentity(info, digest, st.run.Kind(), st.run.Digest()); err != nil {
		return Staged{}, err
	}
	return st, nil
}

// Kind returns the staged envelope's kind.
func (st Staged) Kind() Kind { return st.kind }

// Digest returns the staged sketch's configuration digest.
func (st Staged) Digest() uint64 { return st.digest }

// Seed returns the staged sketch's coordination seed.
func (st Staged) Seed() uint64 {
	if st.run != nil {
		return st.run.Seed()
	}
	return st.sk.Seed()
}

// MergeInto folds the staged envelope into dst, leaving dst
// byte-identical to dst.Merge(Open(envelope)).
func (st Staged) MergeInto(dst Sketch) error {
	if st.run != nil {
		return st.run.MergeInto(dst)
	}
	return dst.Merge(st.sk)
}

// Open returns the staged envelope as a sketch of its own, what Open
// returns for it: the sketch staging decoded, or for a kind staged
// into a Run, Open(envelope). envelope must be the bytes st was staged
// from.
func (st Staged) Open(envelope []byte) (Sketch, error) {
	if st.run != nil {
		return Open(envelope)
	}
	return st.sk, nil
}

// parseEnvelope validates an envelope's header: its magic, a
// registered kind and that kind's format version. It returns the
// kind's registration and the header's config digest.
func parseEnvelope(b []byte) (KindInfo, uint64, error) {
	if len(b) < EnvelopeHeaderSize {
		return KindInfo{}, 0, fmt.Errorf("%w: envelope %d bytes, need %d-byte header", ErrCorrupt, len(b), EnvelopeHeaderSize)
	}
	if b[0] != EnvelopeMagic0 || b[1] != EnvelopeMagic1 {
		return KindInfo{}, 0, fmt.Errorf("%w: bad envelope magic %q", ErrCorrupt, b[:2])
	}
	info, ok := Lookup(Kind(b[2]))
	if !ok {
		return KindInfo{}, 0, fmt.Errorf("%w: %d", ErrUnknownKind, b[2])
	}
	if b[3] != info.Version {
		return KindInfo{}, 0, fmt.Errorf("%w: %s payload version %d, this build speaks %d", ErrCorrupt, info.Name, b[3], info.Version)
	}
	return info, binary.LittleEndian.Uint64(b[4:12]), nil
}

// decode decodes the payload of an envelope whose header parseEnvelope
// accepted, and cross-checks the sketch against the header.
func decode(info KindInfo, digest uint64, payload []byte) (Sketch, error) {
	s, err := info.Decode(payload)
	if err != nil {
		return nil, err
	}
	if err := checkIdentity(info, digest, s.Kind(), s.Digest()); err != nil {
		return nil, err
	}
	return s, nil
}

// checkIdentity cross-checks the kind and digest a decoded or staged
// payload reports against its envelope header: the kind the header
// routed it by, and the digest the header claims.
func checkIdentity(info KindInfo, digest uint64, kind Kind, got uint64) error {
	if kind != info.Kind {
		return fmt.Errorf("%w: %s payload decoded to kind %s", ErrCorrupt, info.Name, kind)
	}
	if got != digest {
		return fmt.Errorf("%w: %s config digest %016x, envelope says %016x", ErrCorrupt, info.Name, got, digest)
	}
	return nil
}
