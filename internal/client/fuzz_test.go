package client

// FuzzClientReadFrame drives the client's reply-frame reader, over a
// wire.Reader as an exchange's link holds one, with arbitrary byte
// streams: it must agree with wire.ReadFrame on accept/reject, type
// version disagreements as ErrVersionMismatch, and never panic —
// including the ack-payload decode a push performs on whatever frame
// comes back. The seed corpus is shared with
// internal/wire's FuzzWireDecode (testdata/fuzz/FuzzWireDecode), so
// every frame shape that fuzzer has found interesting is replayed here
// on each `go test`. Explore further with
//
//	go test -fuzz=FuzzClientReadFrame ./internal/client

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// wireCorpus loads internal/wire's seed corpus files (go test fuzz v1
// format, one []byte("...") line per file).
func wireCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir := filepath.Join("..", "wire", "testdata", "fuzz", "FuzzWireDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("shared corpus missing: %v", err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				f.Fatalf("%s: unquoting corpus line: %v", e.Name(), err)
			}
			out = append(out, []byte(s))
		}
	}
	if len(out) == 0 {
		f.Fatal("shared corpus parsed to zero seeds")
	}
	return out
}

func FuzzClientReadFrame(f *testing.F) {
	for _, seed := range wireCorpus(f) {
		f.Add(seed)
	}
	f.Add(wire.EncodeFrame(wire.MsgAck, wire.Ack{Code: wire.AckBadFrame, Detail: "damaged"}.Encode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		typ, payload, err := readFrame(wire.NewReader(bytes.NewReader(data), limit))
		wtyp, wpayload, werr := wire.ReadFrame(bytes.NewReader(data), limit)

		// The client reader is wire.ReadFrame plus error typing: it
		// must accept exactly what the wire reader accepts.
		if (err == nil) != (werr == nil) {
			t.Fatalf("client readFrame err=%v, wire ReadFrame err=%v", err, werr)
		}
		if err == nil {
			if typ != wtyp || !bytes.Equal(payload, wpayload) {
				t.Fatalf("client (%v, %d bytes) != wire (%v, %d bytes)", typ, len(payload), wtyp, len(wpayload))
			}
			// A push inspects whatever ack comes back; arbitrary ack
			// payloads must map to nil or an error, never a panic.
			if typ == wire.MsgAck {
				_ = ackError(payload)
			}
			return
		}
		// Version disagreements must carry the client's typed sentinel
		// (and keep the wire cause inspectable); everything else must
		// pass the wire error through untyped.
		if errors.Is(werr, wire.ErrVersion) {
			if !errors.Is(err, ErrVersionMismatch) || !errors.Is(err, wire.ErrVersion) {
				t.Fatalf("version error not typed: %v", err)
			}
		} else if errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("spurious ErrVersionMismatch for %v", werr)
		}
		// A damaged frame must never classify as a clean close.
		if errors.Is(err, wire.ErrFrame) && errors.Is(err, io.EOF) {
			t.Fatalf("ErrFrame error satisfies io.EOF: %v", err)
		}
	})
}
