package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzWireDecode mirrors internal/core's FuzzSamplerUnmarshal for the
// network framing: arbitrary bytes are walked frame by frame twice,
// once through one Reader (the stream path every connection, exchange
// and WAL replay takes, its buffer reused from frame to frame) and once
// by looping DecodeFrame over the buffer. The two must agree on every
// frame — type, payload, and Frame() equal to the consumed input,
// which re-encoding the frame reproduces — and must stop at the same
// offset with the same error class. The seed corpus under
// testdata/fuzz runs on every `go test`; explore further with
//
//	go test -fuzz=FuzzWireDecode ./internal/wire
func FuzzWireDecode(f *testing.F) {
	f.Add(EncodeFrame(MsgPush, []byte("GT\x01sketch bytes")))
	f.Add(EncodeFrame(MsgAck, Ack{Code: AckSeedMismatch, Detail: "seed 7"}.Encode()))
	f.Add(AppendFrame(EncodeFrame(MsgQuery, Query{Kind: QueryDistinct, HasSeed: true, Seed: 42}.Encode()), MsgStats, nil))
	if np, err := EncodePushNamed("clicks", []byte("GT\x01sketch bytes")); err == nil {
		f.Add(EncodeFrame(MsgPushNamed, np))
	}
	if eqe, err := (ExprQuery{Expr: Jaccard(Union(Leaf("a"), Leaf("")), Leaf("b"))}).Encode(); err == nil {
		f.Add(EncodeFrame(MsgQueryExpr, eqe))
		f.Add(EncodeFrame(MsgQueryExpr, eqe[:len(eqe)-2]))
	}
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version})
	f.Add(EncodeFrame(MsgStats, nil)[:HeaderSize-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		fr := NewReader(bytes.NewReader(data), limit)
		for rest := data; ; {
			off := len(data) - len(rest)
			rtyp, rpayload, rerr := fr.Next()
			if len(rest) == 0 {
				if rerr != io.EOF {
					t.Fatalf("Reader at the end of the input (offset %d): err = %v, want io.EOF", off, rerr)
				}
				return
			}
			typ, payload, next, err := DecodeFrame(rest, limit)
			if err != nil || rerr != nil {
				if class(err) != class(rerr) {
					t.Fatalf("at offset %d: DecodeFrame err = %v, Reader err = %v", off, err, rerr)
				}
				return
			}
			frame := rest[:len(rest)-len(next)]
			if rtyp != typ || !bytes.Equal(rpayload, payload) || !bytes.Equal(fr.Frame(), frame) {
				t.Fatalf("at offset %d: decoders disagree: (%v, %d bytes) vs Reader (%v, %d bytes, frame %d bytes)",
					off, typ, len(payload), rtyp, len(rpayload), len(fr.Frame()))
			}
			// Round trip: re-encoding the decoded frame must reproduce the
			// consumed input bytes exactly.
			if !bytes.Equal(EncodeFrame(typ, payload), frame) {
				t.Fatalf("at offset %d: re-encode differs from consumed input", off)
			}
			checkTypedPayload(t, typ, payload)
			rest = next
		}
	})
}

// class names the decoder error class of err: the one of ErrFrame,
// ErrVersion and ErrOversize it wraps.
func class(err error) error {
	for _, c := range []error{ErrFrame, ErrVersion, ErrOversize} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// checkTypedPayload decodes a frame's payload by its type: anything a
// typed decoder accepts must re-encode to the identical bytes.
func checkTypedPayload(t *testing.T, typ MsgType, payload []byte) {
	t.Helper()
	// Typed payloads must never panic on decode, valid or not.
	switch typ {
	case MsgAck:
		if a, err := DecodeAck(payload); err == nil {
			if _, err := DecodeAck(a.Encode()); err != nil {
				t.Fatalf("ack does not round-trip: %v", err)
			}
		}
	case MsgQuery:
		if q, err := DecodeQuery(payload); err == nil {
			if q.Encode() == nil {
				t.Fatal("query re-encode nil")
			}
			_, _ = q.Predicate()
		}
	case MsgQueryResult:
		_, _ = DecodeQueryResult(payload)
	case MsgPushNamed:
		if stream, env, err := DecodePushNamed(payload); err == nil {
			re, rerr := EncodePushNamed(stream, env)
			if rerr != nil || !bytes.Equal(re, payload) {
				t.Fatalf("named push does not round-trip (err=%v)", rerr)
			}
		}
	case MsgQueryExpr:
		if eq, err := DecodeExprQuery(payload); err == nil {
			// Anything the decoder accepts is structurally valid and
			// must re-encode to the identical bytes.
			if verr := eq.Expr.Validate(); verr != nil {
				t.Fatalf("decoded expression fails Validate: %v", verr)
			}
			re, rerr := eq.Encode()
			if rerr != nil || !bytes.Equal(re, payload) {
				t.Fatalf("expr query does not round-trip (err=%v)", rerr)
			}
			_ = eq.Expr.Leaves(nil)
			_ = eq.Expr.String()
		}
	case MsgQueryExprResult:
		if res, err := DecodeExprResult(payload); err == nil {
			re, rerr := EncodeExprResult(res)
			if rerr != nil || !bytes.Equal(re, payload) {
				t.Fatalf("expr result does not round-trip (err=%v)", rerr)
			}
		}
	}
}
