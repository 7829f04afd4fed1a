// Package wire defines the framed binary protocol that unionstreamd
// (the networked referee) and its site clients speak over TCP.
//
// The paper's model has each party send exactly one small message; this
// package is the transport framing for that message on a real network.
// A frame wraps an opaque payload — for pushes, a self-describing
// internal/sketch envelope — in a fixed 12-byte header:
//
//	offset  size  field
//	0       2     magic "US"
//	2       1     protocol version (currently 1)
//	3       1     message type
//	4       4     payload length, uint32 little endian
//	8       4     CRC-32 (IEEE) of the payload, uint32 little endian
//	12      n     payload
//
// The decoder is deliberately paranoid: it rejects bad magic, unknown
// versions and types, frames beyond a caller-chosen size limit, and
// payloads whose checksum does not match — before any payload byte is
// interpreted. A coordinator absorbing messages from many remote sites
// must survive arbitrary junk on the socket (FuzzWireDecode asserts
// exactly that), and the sketch decoders behind it already carry their
// own validation as a second layer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/failpoint"
)

const (
	// Magic0 and Magic1 open every frame.
	Magic0 = 'U'
	Magic1 = 'S'
	// Version is the protocol version this package speaks. A decoder
	// that sees any other version fails with ErrVersion so the peer
	// can be told apart from line noise.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12
	// DefaultMaxPayload bounds payload length when the caller passes 0.
	// Sketch messages are O(log(1/δ)/ε²·log m) bytes — kilobytes — so
	// 16 MiB is generous headroom, not a real operating point.
	DefaultMaxPayload = 16 << 20
)

// MsgType identifies what a frame's payload is.
type MsgType uint8

const (
	// MsgPush carries a sketch envelope (see internal/sketch: kind tag
	// + format version + config digest + payload) from a site; the
	// coordinator routes it through the kind registry and merges it
	// into the matching (kind, digest) group. Former protocol
	// generations had a separate MsgOpaque (type 7) for uninterpreted
	// coordinator messages; the registry subsumed it, and type 7 is
	// retired — never reuse it.
	MsgPush MsgType = iota + 1
	// MsgAck answers MsgPush (and reports request errors); payload is
	// an Ack encoding.
	MsgAck
	// MsgQuery requests an estimate; payload is a Query encoding.
	MsgQuery
	// MsgQueryResult answers MsgQuery; payload is a float64 estimate.
	MsgQueryResult
	// MsgStats requests the coordinator's introspection snapshot
	// (empty payload).
	MsgStats
	// MsgStatsResult answers MsgStats; payload is JSON.
	MsgStatsResult
)

// Minor-version-2 message types. Type 7 is the retired MsgOpaque slot
// (see MsgPush), so this block starts at 8: a decoder from the
// previous protocol generation rejects these as unknown types, which
// is exactly the compatibility contract MinorVersion documents.
const (
	// MsgPushNamed carries a stream name plus a sketch envelope (see
	// EncodePushNamed): the named-stream variant of MsgPush. A plain
	// MsgPush is equivalent to a MsgPushNamed with the empty (default)
	// stream name.
	MsgPushNamed MsgType = iota + 8
	// MsgQueryExpr requests a set-expression estimate; payload is an
	// ExprQuery encoding (a QueryExpr AST plus group filters).
	MsgQueryExpr
	// MsgQueryExprResult answers MsgQueryExpr; payload is an ExprResult
	// tree mirroring the query with per-node values and error bounds.
	MsgQueryExprResult

	maxMsgType
)

// MinorVersion is the protocol's minor revision. The frame header
// still says Version 1 — every frame either side of minor 2 emits is
// readable by a minor-1 peer or refused as an unknown message type,
// never misparsed — and minor 2 adds named streams (MsgPushNamed) and
// set-expression queries (MsgQueryExpr/MsgQueryExprResult). A minor-1
// coordinator answers those frames with an AckError/AckBadFrame-class
// refusal rather than junk, and unnamed pushes keep meaning "the
// default stream" on both sides.
const MinorVersion = 2

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgPush:
		return "push"
	case MsgAck:
		return "ack"
	case MsgQuery:
		return "query"
	case MsgQueryResult:
		return "query-result"
	case MsgStats:
		return "stats"
	case MsgStatsResult:
		return "stats-result"
	case MsgPushNamed:
		return "push-named"
	case MsgQueryExpr:
		return "query-expr"
	case MsgQueryExprResult:
		return "query-expr-result"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

func (t MsgType) valid() bool {
	// The gap between the two ranges is type 7, the retired MsgOpaque
	// slot: a frame claiming it is junk, not a protocol generation.
	return (t >= MsgPush && t <= MsgStatsResult) || (t >= MsgPushNamed && t < maxMsgType)
}

// Errors returned by the frame decoder. ErrVersion and ErrOversize are
// distinct from ErrFrame so callers can give them protocol-level
// responses (a version-mismatch ack, a hard close) instead of treating
// them as noise.
var (
	// ErrFrame reports a structurally malformed frame: bad magic,
	// unknown type, truncation, or checksum mismatch.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrVersion reports a well-formed header speaking a different
	// protocol version.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrOversize reports a frame whose declared payload exceeds the
	// reader's limit.
	ErrOversize = errors.New("wire: frame exceeds size limit")
)

func maxPayload(limit uint32) uint32 {
	if limit == 0 {
		return DefaultMaxPayload
	}
	return limit
}

// AppendFrame appends a frame of type t wrapping payload to b and
// returns the extended slice.
func AppendFrame(b []byte, t MsgType, payload []byte) []byte {
	start := len(b)
	b = append(b, Magic0, Magic1, Version, byte(t), 0, 0, 0, 0, 0, 0, 0, 0)
	return sealFrame(append(b, payload...), start)
}

// sealFrame writes the length and CRC of the frame that starts at
// b[start] and runs to the end of b into its header.
func sealFrame(b []byte, start int) []byte {
	payload := b[start+HeaderSize:]
	binary.LittleEndian.PutUint32(b[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+8:], crc32.ChecksumIEEE(payload))
	return b
}

// EncodeFrame returns a fresh frame of type t wrapping payload.
func EncodeFrame(t MsgType, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), t, payload)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	return writeEncoded(w, EncodeFrame(t, payload))
}

// ackOK is the frame of the reply nearly every push gets, encoded once.
var ackOK = EncodeFrame(MsgAck, Ack{Code: AckOK}.Encode())

// WriteAck writes one MsgAck frame carrying a to w.
func WriteAck(w io.Writer, a Ack) error {
	if a == (Ack{Code: AckOK}) {
		return writeEncoded(w, ackOK)
	}
	return writeEncoded(w, EncodeFrame(MsgAck, a.Encode()))
}

func writeEncoded(w io.Writer, frame []byte) error {
	if err := failpoint.Inject(failpoint.WireEncode); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// Reader reads a stream of frames through one buffer, which it grows
// to the stream's largest frame and reuses from frame to frame. The
// payload Next returns, and the frame Frame returns, stay valid only
// until the next call to Next: a caller that keeps either must copy
// it.
type Reader struct {
	r     io.Reader
	limit uint32
	frame []byte // the frame Next last read, header then payload
}

// NewReader returns a Reader of the frames on r, enforcing limit (0
// selects DefaultMaxPayload) on each payload's length.
func NewReader(r io.Reader, limit uint32) *Reader {
	return &Reader{r: r, limit: limit}
}

// Reset re-targets the reader at r and limit, keeping its buffer.
func (fr *Reader) Reset(r io.Reader, limit uint32) {
	fr.r, fr.limit, fr.frame = r, limit, fr.frame[:0]
}

// Frame returns the whole frame Next last read, byte for byte as it
// arrived, or nothing if that read failed.
func (fr *Reader) Frame() []byte { return fr.frame }

// Next reads the next frame, returning its message type and payload,
// or one of ErrFrame/ErrVersion/ErrOversize. A bare io.EOF is returned
// only when the stream ends cleanly between frames; every mid-frame
// truncation — including inside the header's CRC trailer or exactly
// at the header/payload boundary — surfaces as an ErrFrame-wrapped
// error that satisfies errors.Is(err, io.ErrUnexpectedEOF) and never
// errors.Is(err, io.EOF), so callers cannot mistake a damaged frame
// for a clean goodbye. The length is checked against the limit before
// the buffer grows to hold the payload.
func (fr *Reader) Next() (MsgType, []byte, error) {
	fr.frame = fr.frame[:0]
	if err := failpoint.Inject(failpoint.WireDecode); err != nil {
		return 0, nil, err
	}
	hdr := slices.Grow(fr.frame, HeaderSize)[:HeaderSize]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %w", ErrFrame, err)
	}
	t, n, err := parseHeader(hdr, fr.limit)
	if err != nil {
		return 0, nil, err
	}
	frame := slices.Grow(hdr, int(n))[:HeaderSize+int(n)]
	payload := frame[HeaderSize:]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			// Zero payload bytes after a complete header is still a
			// truncated frame, not a clean end of stream; wrapping the
			// bare io.EOF would let errors.Is(err, io.EOF) misclassify
			// it as a graceful hangup.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: truncated payload: %w", ErrFrame, err)
	}
	if err := checkCRC(frame); err != nil {
		return 0, nil, err
	}
	fr.frame = frame
	return t, payload, nil
}

// ReadFrame reads exactly one frame from r through a one-shot Reader:
// see Reader.Next for the limit and the error contract.
func ReadFrame(r io.Reader, limit uint32) (MsgType, []byte, error) {
	fr := Reader{r: r, limit: limit}
	return fr.Next()
}

// DecodeFrame decodes one frame from the front of b, returning the
// remaining bytes after it. It is the buffer-oriented twin of Reader,
// used by the fuzz target and anywhere frames arrive pre-buffered.
func DecodeFrame(b []byte, limit uint32) (t MsgType, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, nil, fmt.Errorf("%w: %d bytes, need %d-byte header", ErrFrame, len(b), HeaderSize)
	}
	t, n, err := parseHeader(b[:HeaderSize], limit)
	if err != nil {
		return 0, nil, nil, err
	}
	if uint32(len(b)-HeaderSize) < n {
		return 0, nil, nil, fmt.Errorf("%w: payload truncated at %d of %d bytes", ErrFrame, len(b)-HeaderSize, n)
	}
	frame := b[:HeaderSize+int(n)]
	if err := checkCRC(frame); err != nil {
		return 0, nil, nil, err
	}
	return t, frame[HeaderSize:], b[len(frame):], nil
}

// parseHeader validates a frame header and returns its message type and
// payload length.
func parseHeader(hdr []byte, limit uint32) (MsgType, uint32, error) {
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:2])
	}
	if hdr[2] != Version {
		return 0, 0, fmt.Errorf("%w: peer speaks version %d, this side speaks %d", ErrVersion, hdr[2], Version)
	}
	t := MsgType(hdr[3])
	if !t.valid() {
		return 0, 0, fmt.Errorf("%w: unknown message type %d", ErrFrame, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxPayload(limit) {
		return 0, 0, fmt.Errorf("%w: payload %d > limit %d", ErrOversize, n, maxPayload(limit))
	}
	return t, n, nil
}

// checkCRC verifies a whole frame's payload against its header's CRC.
func checkCRC(frame []byte) error {
	if got, want := crc32.ChecksumIEEE(frame[HeaderSize:]), binary.LittleEndian.Uint32(frame[8:12]); got != want {
		return fmt.Errorf("%w: checksum %08x, header says %08x", ErrFrame, got, want)
	}
	return nil
}

// AckCode classifies the coordinator's response to a message. Each
// code's `ackclass:` line documents how a client treats it (success,
// transient: retried, permanent: surfaced at once); the client's
// ackError switch implements that, and internal/client's tests fail
// on a named code it does not dispose of.
type AckCode uint8

const (
	// AckOK: the message was absorbed.
	// ackclass: success
	AckOK AckCode = iota
	// AckVersionMismatch: the peer spoke a different protocol version.
	// ackclass: permanent
	AckVersionMismatch
	// AckSeedMismatch: the sketch's coordination seed (or wider
	// configuration) is incompatible with what the coordinator
	// requires — the uncoordinated-merge failure the paper's shared
	// seed exists to prevent, surfaced as a typed refusal.
	// ackclass: permanent
	AckSeedMismatch
	// AckCorrupt: the payload failed sketch-level validation.
	// ackclass: permanent
	AckCorrupt
	// AckUnsupported: the request is valid but this coordinator cannot
	// serve it (e.g. a sketch kind with no registered decoder in the
	// server's build).
	// ackclass: permanent
	AckUnsupported
	// AckError: any other server-side failure; Detail explains. The
	// coordinator failed, not the message — a restarted or recovered
	// coordinator may accept the retry.
	// ackclass: transient
	AckError
	// AckBadFrame: the frame itself failed wire-level validation (bad
	// magic, truncation, checksum mismatch) — the bytes were damaged
	// in transit, not the message, so the sender may retry the same
	// payload. Distinct from AckCorrupt, which reports a well-framed
	// payload whose sketch-level decoding failed and is permanent.
	// ackclass: transient
	AckBadFrame
	// AckKindMismatch: the pushed sketch kind differs from the one
	// this coordinator is pinned to (server.Config.RequireKind) — a
	// site running the wrong backend must hear a typed, permanent
	// refusal rather than silently forming its own group.
	// ackclass: permanent
	AckKindMismatch

	numAckCodes
)

// String implements fmt.Stringer.
func (c AckCode) String() string {
	switch c {
	case AckOK:
		return "ok"
	case AckVersionMismatch:
		return "version-mismatch"
	case AckSeedMismatch:
		return "seed-mismatch"
	case AckCorrupt:
		return "corrupt"
	case AckUnsupported:
		return "unsupported"
	case AckError:
		return "error"
	case AckBadFrame:
		return "bad-frame"
	case AckKindMismatch:
		return "kind-mismatch"
	default:
		return fmt.Sprintf("AckCode(%d)", uint8(c))
	}
}

// maxAckDetail bounds the human-readable detail string on decode.
const maxAckDetail = 4096

// Ack is the payload of a MsgAck frame.
type Ack struct {
	Code   AckCode
	Detail string
}

// Encode serializes the ack: code byte, uvarint detail length, detail.
func (a Ack) Encode() []byte {
	d := a.Detail
	if len(d) > maxAckDetail {
		d = d[:maxAckDetail]
	}
	b := make([]byte, 0, 2+len(d))
	b = append(b, byte(a.Code))
	b = binary.AppendUvarint(b, uint64(len(d)))
	return append(b, d...)
}

// DecodeAck parses an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	if len(b) < 2 {
		return Ack{}, fmt.Errorf("%w: ack payload %d bytes", ErrFrame, len(b))
	}
	code := AckCode(b[0])
	if code >= numAckCodes {
		return Ack{}, fmt.Errorf("%w: unknown ack code %d", ErrFrame, b[0])
	}
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || n > maxAckDetail {
		return Ack{}, fmt.Errorf("%w: bad ack detail length", ErrFrame)
	}
	rest := b[1+k:]
	if uint64(len(rest)) != n {
		return Ack{}, fmt.Errorf("%w: ack detail %d bytes, declared %d", ErrFrame, len(rest), n)
	}
	return Ack{Code: code, Detail: string(rest)}, nil
}

// QueryKind selects which estimate a MsgQuery asks for.
type QueryKind uint8

const (
	// QueryDistinct asks for the distinct-count (F0) estimate of the
	// union.
	QueryDistinct QueryKind = iota
	// QuerySum asks for the SumDistinct estimate.
	QuerySum
	// QueryCountWhere asks for the predicate-count estimate.
	QueryCountWhere
	// QuerySumWhere asks for the predicate-sum estimate.
	QuerySumWhere

	numQueryKinds
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case QueryDistinct:
		return "distinct"
	case QuerySum:
		return "sum"
	case QueryCountWhere:
		return "count-where"
	case QuerySumWhere:
		return "sum-where"
	default:
		return fmt.Sprintf("QueryKind(%d)", uint8(k))
	}
}

// PredKind selects the predicate family a query carries. Predicates
// must travel the wire, so the protocol offers closed forms rather
// than arbitrary closures; both cover the repository's experiment
// predicates (label classes and ranges).
type PredKind uint8

const (
	// PredNone: no predicate (QueryDistinct / QuerySum).
	PredNone PredKind = iota
	// PredMod selects labels with label % A == B.
	PredMod
	// PredRange selects labels with A <= label <= B.
	PredRange

	numPredKinds
)

// Query flag bits (byte 1 of the encoding).
const (
	queryFlagSeed = 1 << 0
	queryFlagKind = 1 << 1
)

const queryEncodedLen = 1 + 1 + 8 + 1 + 1 + 8 + 8

// Query is the payload of a MsgQuery frame.
type Query struct {
	Kind QueryKind
	// HasSeed selects the merge group by coordination seed; without
	// it the coordinator answers from its sole group (and refuses if
	// it holds several, since "the union" would be ambiguous).
	HasSeed bool
	Seed    uint64
	// HasKind restricts the query to groups of one sketch kind
	// (SketchKind is a sketch.Kind tag) — needed when several
	// backends share a coordination seed and the seed alone is
	// ambiguous.
	HasKind    bool
	SketchKind uint8
	Pred       PredKind
	// A and B parameterize Pred (modulus/residue, or range bounds).
	A, B uint64
}

// Encode serializes the query to its fixed-length wire form. Seed and
// SketchKind are written as canonical zero when their flags are unset.
func (q Query) Encode() []byte {
	b := make([]byte, 0, queryEncodedLen)
	b = append(b, byte(q.Kind))
	var flags byte
	var seed uint64
	if q.HasSeed {
		flags |= queryFlagSeed
		seed = q.Seed
	}
	if q.HasKind {
		flags |= queryFlagKind
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, seed)
	var kind byte
	if q.HasKind {
		kind = q.SketchKind
	}
	b = append(b, kind)
	b = append(b, byte(q.Pred))
	b = binary.LittleEndian.AppendUint64(b, q.A)
	b = binary.LittleEndian.AppendUint64(b, q.B)
	return b
}

// DecodeQuery parses a Query payload.
func DecodeQuery(b []byte) (Query, error) {
	if len(b) != queryEncodedLen {
		return Query{}, fmt.Errorf("%w: query payload %d bytes, want %d", ErrFrame, len(b), queryEncodedLen)
	}
	q := Query{
		Kind:       QueryKind(b[0]),
		HasSeed:    b[1]&queryFlagSeed != 0,
		Seed:       binary.LittleEndian.Uint64(b[2:10]),
		HasKind:    b[1]&queryFlagKind != 0,
		SketchKind: b[10],
		Pred:       PredKind(b[11]),
		A:          binary.LittleEndian.Uint64(b[12:20]),
		B:          binary.LittleEndian.Uint64(b[20:28]),
	}
	if q.Kind >= numQueryKinds {
		return Query{}, fmt.Errorf("%w: unknown query kind %d", ErrFrame, b[0])
	}
	if b[1]&^(queryFlagSeed|queryFlagKind) != 0 {
		return Query{}, fmt.Errorf("%w: unknown query flags %#x", ErrFrame, b[1])
	}
	// The encoding is canonical: an absent field must be zero.
	if !q.HasSeed && q.Seed != 0 {
		return Query{}, fmt.Errorf("%w: seed %d without the seed flag", ErrFrame, q.Seed)
	}
	if !q.HasKind && q.SketchKind != 0 {
		return Query{}, fmt.Errorf("%w: sketch kind %d without the kind flag", ErrFrame, b[10])
	}
	if q.Pred >= numPredKinds {
		return Query{}, fmt.Errorf("%w: unknown predicate kind %d", ErrFrame, b[11])
	}
	return q, nil
}

// Predicate materializes the query's predicate as a label function.
// Predicate-less queries yield a nil function; a predicate query with
// no predicate (or an undefined one, like a zero modulus) is an error.
func (q Query) Predicate() (func(uint64) bool, error) {
	needsPred := q.Kind == QueryCountWhere || q.Kind == QuerySumWhere
	switch q.Pred {
	case PredNone:
		if needsPred {
			return nil, fmt.Errorf("%w: %s query without a predicate", ErrFrame, q.Kind)
		}
		return nil, nil
	case PredMod:
		if q.A == 0 {
			return nil, fmt.Errorf("%w: modulus 0", ErrFrame)
		}
		m, r := q.A, q.B
		return func(label uint64) bool { return label%m == r }, nil
	case PredRange:
		lo, hi := q.A, q.B
		if lo > hi {
			return nil, fmt.Errorf("%w: empty range [%d, %d]", ErrFrame, lo, hi)
		}
		return func(label uint64) bool { return lo <= label && label <= hi }, nil
	default:
		return nil, fmt.Errorf("%w: unknown predicate kind %d", ErrFrame, q.Pred)
	}
}

// EncodeQueryResult serializes an estimate for a MsgQueryResult frame.
func EncodeQueryResult(v float64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), math.Float64bits(v))
}

// DecodeQueryResult parses a MsgQueryResult payload.
func DecodeQueryResult(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: query result %d bytes, want 8", ErrFrame, len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}
