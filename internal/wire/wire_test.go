package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for _, p := range payloads {
		enc := EncodeFrame(MsgPush, p)
		typ, got, err := ReadFrame(bytes.NewReader(enc), 0)
		if err != nil {
			t.Fatalf("ReadFrame(%d-byte payload): %v", len(p), err)
		}
		if typ != MsgPush || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: type %v, %d bytes", typ, len(got))
		}
	}
}

func TestFrameStreamOfFrames(t *testing.T) {
	// Several frames back to back on one connection.
	var buf bytes.Buffer
	msgs := []struct {
		t MsgType
		p string
	}{{MsgPush, "alpha"}, {MsgQuery, "beta"}, {MsgAck, ""}, {MsgStats, "gamma"}}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m.t, []byte(m.p)); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range msgs {
		typ, p, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != m.t || string(p) != m.p {
			t.Fatalf("frame %d: got (%v, %q)", i, typ, p)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestReaderReusesBuffer: a Reader returns each frame as it arrived,
// reads a small frame into the buffer a large one grew, keeps that
// buffer across Reset, and allocates nothing once it is grown.
func TestReaderReusesBuffer(t *testing.T) {
	large := EncodeFrame(MsgPush, bytes.Repeat([]byte{0xAB}, 4096))
	small := EncodeFrame(MsgAck, Ack{Code: AckOK}.Encode())
	stream := bytes.NewReader(append(append([]byte(nil), large...), small...))
	fr := NewReader(stream, 0)
	var first *byte
	for i, want := range [][]byte{large, small} {
		typ, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != MsgType(want[3]) || !bytes.Equal(payload, want[HeaderSize:]) || !bytes.Equal(fr.Frame(), want) {
			t.Fatalf("frame %d: got %v with %d payload bytes, frame %d bytes", i, typ, len(payload), len(fr.Frame()))
		}
		if i == 0 {
			first = &fr.Frame()[0]
		} else if &fr.Frame()[0] != first {
			t.Fatal("the small frame was read into a new buffer")
		}
	}
	if _, _, err := fr.Next(); err != io.EOF || len(fr.Frame()) != 0 {
		t.Fatalf("after the last frame: err = %v, %d frame bytes; want io.EOF and none", err, len(fr.Frame()))
	}
	allocs := testing.AllocsPerRun(100, func() {
		stream.Reset(large)
		fr.Reset(stream, 0)
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || &fr.Frame()[0] != first {
		t.Errorf("Reset and Next into a grown buffer: %v allocations, buffer kept %v", allocs, &fr.Frame()[0] == first)
	}
}

func TestDecodeFrameRest(t *testing.T) {
	b := EncodeFrame(MsgPush, []byte("one"))
	b = AppendFrame(b, MsgQuery, []byte("two"))
	typ, p, rest, err := DecodeFrame(b, 0)
	if err != nil || typ != MsgPush || string(p) != "one" {
		t.Fatalf("first frame: %v %q %v", typ, p, err)
	}
	typ, p, rest, err = DecodeFrame(rest, 0)
	if err != nil || typ != MsgQuery || string(p) != "two" {
		t.Fatalf("second frame: %v %q %v", typ, p, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameRejections(t *testing.T) {
	good := EncodeFrame(MsgPush, []byte("payload"))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrFrame},
		{"bad version", func(b []byte) []byte { b[2] = Version + 1; return b }, ErrVersion},
		{"zero type", func(b []byte) []byte { b[3] = 0; return b }, ErrFrame},
		{"unknown type", func(b []byte) []byte { b[3] = byte(maxMsgType); return b }, ErrFrame},
		{"payload bit flip", func(b []byte) []byte { b[HeaderSize] ^= 0x01; return b }, ErrFrame},
		{"crc bit flip", func(b []byte) []byte { b[8] ^= 0x80; return b }, ErrFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, ErrFrame},
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-3] }, ErrFrame},
	}
	for _, c := range cases {
		b := c.mutate(append([]byte(nil), good...))
		if _, _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if _, _, _, err := DecodeFrame(b, 0); !errors.Is(err, c.want) {
			t.Errorf("%s (buffer): err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestRetiredFrameType7Refused: type 7 was MsgOpaque, retired when
// the sketch registry subsumed it. A frame claiming it is junk, and the
// minor-2 types start past it, so MsgPushNamed stays 8.
func TestRetiredFrameType7Refused(t *testing.T) {
	if MsgPushNamed != 8 {
		t.Fatalf("MsgPushNamed = %d, want 8: type 7 is retired", MsgPushNamed)
	}
	b := EncodeFrame(MsgType(7), []byte("payload"))
	if _, _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, ErrFrame) {
		t.Errorf("ReadFrame of a type-7 frame: err = %v, want ErrFrame", err)
	}
	if _, _, _, err := DecodeFrame(b, 0); !errors.Is(err, ErrFrame) {
		t.Errorf("DecodeFrame of a type-7 frame: err = %v, want ErrFrame", err)
	}
}

// TestReadFrameTruncationAlwaysErrFrame is the regression test for
// the truncated-frame error contract: cutting a valid frame at ANY
// byte offset — inside the magic, the CRC trailer of the header, at
// the header/payload boundary, or mid-payload — must yield an error
// that (a) wraps ErrFrame, (b) satisfies errors.Is(err,
// io.ErrUnexpectedEOF) so the truncation stays inspectable, and (c)
// never satisfies errors.Is(err, io.EOF), which is reserved for a
// clean end of stream between frames. The header/payload boundary
// (offset HeaderSize) used to wrap a bare io.EOF, which let a
// truncated frame masquerade as a graceful hangup.
func TestReadFrameTruncationAlwaysErrFrame(t *testing.T) {
	good := EncodeFrame(MsgPush, []byte("payload"))
	for n := 1; n < len(good); n++ {
		_, _, err := ReadFrame(bytes.NewReader(good[:n]), 0)
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
		if !errors.Is(err, ErrFrame) {
			t.Errorf("truncation at %d: err = %v, not ErrFrame-wrapped", n, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation at %d: err = %v, truncation cause lost", n, err)
		}
		if errors.Is(err, io.EOF) {
			t.Errorf("truncation at %d: err = %v satisfies errors.Is(err, io.EOF); a damaged frame must not look like a clean close", n, err)
		}
		if err == io.ErrUnexpectedEOF {
			t.Errorf("truncation at %d: bare io.ErrUnexpectedEOF escaped unwrapped", n)
		}
	}
	// Offset 0 is the one legitimate io.EOF: the stream ended cleanly
	// before a frame began.
	if _, _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Errorf("empty stream: err = %v, want bare io.EOF", err)
	}
}

func TestFrameOversize(t *testing.T) {
	enc := EncodeFrame(MsgPush, bytes.Repeat([]byte{1}, 100))
	if _, _, err := ReadFrame(bytes.NewReader(enc), 64); !errors.Is(err, ErrOversize) {
		t.Errorf("ReadFrame with 64-byte limit: %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(enc), 100); err != nil {
		t.Errorf("ReadFrame at exact limit: %v", err)
	}
	// The oversize check must fire before any allocation-sized read:
	// a forged header declaring 4 GiB against a short stream.
	forged := append([]byte(nil), enc[:HeaderSize]...)
	forged[4], forged[5], forged[6], forged[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(forged), 1<<20); !errors.Is(err, ErrOversize) {
		t.Errorf("forged huge length: %v", err)
	}
}

// TestWriteAck: WriteAck writes the frame WriteFrame would, from the
// frame encoded once for AckOK, and the wire/encode failpoint still
// fires on that path.
func TestWriteAck(t *testing.T) {
	acks := []Ack{{Code: AckOK}, {Code: AckOK, Detail: "absorbed"}, {Code: AckCorrupt, Detail: "bad sketch"}}
	for _, a := range acks {
		var got, want bytes.Buffer
		if err := WriteAck(&got, a); err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if err := WriteFrame(&want, MsgAck, a.Encode()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%+v: WriteAck wrote %x, WriteFrame %x", a, got.Bytes(), want.Bytes())
		}
	}
	t.Cleanup(failpoint.Reset)
	injected := errors.New("injected encode fault")
	failpoint.Enable(failpoint.WireEncode, failpoint.Error(injected))
	for _, a := range acks {
		var w bytes.Buffer
		if err := WriteAck(&w, a); !errors.Is(err, injected) || w.Len() != 0 {
			t.Errorf("%+v with wire/encode armed: err = %v, %d bytes written", a, err, w.Len())
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, a := range []Ack{
		{Code: AckOK},
		{Code: AckSeedMismatch, Detail: "seed 7 != required 42"},
		{Code: AckBadFrame, Detail: "wire: malformed frame: checksum 00000000, header says ffffffff"},
		{Code: AckError, Detail: strings.Repeat("e", maxAckDetail+100)},
	} {
		got, err := DecodeAck(a.Encode())
		if err != nil {
			t.Fatalf("%v: %v", a.Code, err)
		}
		if got.Code != a.Code {
			t.Errorf("code %v != %v", got.Code, a.Code)
		}
		wantDetail := a.Detail
		if len(wantDetail) > maxAckDetail {
			wantDetail = wantDetail[:maxAckDetail]
		}
		if got.Detail != wantDetail {
			t.Errorf("detail %q", got.Detail)
		}
	}
	for _, bad := range [][]byte{nil, {99, 0}, {0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, {0, 5, 'a'}} {
		if _, err := DecodeAck(bad); err == nil {
			t.Errorf("DecodeAck(%v) accepted", bad)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	queries := []Query{
		{Kind: QueryDistinct},
		{Kind: QuerySum, HasSeed: true, Seed: 42},
		{Kind: QueryCountWhere, HasSeed: true, Seed: 7, Pred: PredMod, A: 10, B: 3},
		{Kind: QuerySumWhere, Pred: PredRange, A: 100, B: 5000},
		{Kind: QueryDistinct, HasSeed: false, Seed: 7},
		{Kind: QueryDistinct, HasKind: false, SketchKind: 3},
	}
	for _, q := range queries {
		got, err := DecodeQuery(q.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		// A field whose flag is unset travels as zero.
		want := q
		if !want.HasSeed {
			want.Seed = 0
		}
		if !want.HasKind {
			want.SketchKind = 0
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestQueryRejections(t *testing.T) {
	bad := [][]byte{
		nil,
		make([]byte, queryEncodedLen-1),
		make([]byte, queryEncodedLen+1),
	}
	for _, b := range bad {
		if _, err := DecodeQuery(b); err == nil {
			t.Errorf("DecodeQuery(%d bytes) accepted", len(b))
		}
	}
	mut := Query{Kind: QueryDistinct}.Encode()
	mut[0] = byte(numQueryKinds)
	if _, err := DecodeQuery(mut); err == nil {
		t.Error("unknown kind accepted")
	}
	mut = Query{Kind: QueryDistinct}.Encode()
	mut[1] = 0x80
	if _, err := DecodeQuery(mut); err == nil {
		t.Error("unknown flag accepted")
	}
	mut = Query{Kind: QueryDistinct}.Encode()
	mut[2] = 7
	if _, err := DecodeQuery(mut); err == nil {
		t.Error("seed without the seed flag accepted")
	}
	mut = Query{Kind: QueryDistinct}.Encode()
	mut[10] = byte(numPredKinds)
	if _, err := DecodeQuery(mut); err == nil {
		t.Error("unknown predicate accepted")
	}
}

func TestQueryPredicate(t *testing.T) {
	if f, err := (Query{Kind: QueryDistinct}).Predicate(); err != nil || f != nil {
		t.Errorf("no-predicate query: f non-nil=%v err=%v", f != nil, err)
	}
	if _, err := (Query{Kind: QueryCountWhere}).Predicate(); err == nil {
		t.Error("predicate query without predicate accepted")
	}
	if _, err := (Query{Kind: QueryCountWhere, Pred: PredMod, A: 0}).Predicate(); err == nil {
		t.Error("zero modulus accepted")
	}
	if _, err := (Query{Kind: QueryCountWhere, Pred: PredRange, A: 9, B: 3}).Predicate(); err == nil {
		t.Error("inverted range accepted")
	}
	f, err := (Query{Kind: QueryCountWhere, Pred: PredMod, A: 4, B: 1}).Predicate()
	if err != nil {
		t.Fatal(err)
	}
	if !f(5) || f(4) {
		t.Error("mod predicate wrong")
	}
	f, err = (Query{Kind: QuerySumWhere, Pred: PredRange, A: 10, B: 20}).Predicate()
	if err != nil {
		t.Fatal(err)
	}
	if !f(10) || !f(20) || f(9) || f(21) {
		t.Error("range predicate wrong")
	}
}

func TestQueryResultRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, 1e18, math.NaN(), math.Inf(1)} {
		got, err := DecodeQueryResult(EncodeQueryResult(v))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN decoded to %v", got)
			}
		} else if got != v {
			t.Errorf("got %v want %v", got, v)
		}
	}
	if _, err := DecodeQueryResult([]byte{1, 2, 3}); err == nil {
		t.Error("short result accepted")
	}
}
