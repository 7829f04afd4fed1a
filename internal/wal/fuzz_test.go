package wal_test

// FuzzWALReplay drives the segment decoder and the full Open/Replay
// recovery path with arbitrary segment bytes: the decoder must never
// panic, must stop cleanly at the first damaged record (classifying it
// ErrDamaged, never a bare io.EOF), and the clean prefix it reports
// must re-decode byte-for-byte deterministically. The seed corpus is
// shared with internal/wire's FuzzWireDecode, plus composed segments
// with torn tails and flipped bits — the two shapes a crash actually
// leaves on disk. Explore further with
//
//	go test -fuzz=FuzzWALReplay ./internal/wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/wal"
	"repro/internal/wire"
)

const fuzzLimit = 1 << 16

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

// fuzzSegment composes a well-formed 3-record segment the mutator can
// tear and flip from.
func fuzzSegment(f *testing.F) []byte {
	f.Helper()
	var seg []byte
	for i := 0; i < 3; i++ {
		sk := kmv.New(4, uint64(31000+i))
		for x := uint64(0); x < 12; x++ {
			sk.Process(x*13 + uint64(i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			f.Fatal(err)
		}
		seg = wire.AppendFrame(seg, wire.MsgPush, env)
	}
	return seg
}

func FuzzWALReplay(f *testing.F) {
	for _, seed := range wireCorpus(f) {
		f.Add(seed)
	}
	seg := fuzzSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-7])        // torn tail, mid-record
	f.Add(seg[:wire.HeaderSize/2]) // torn tail, mid-header
	flipped := append([]byte(nil), seg...)
	flipped[wire.HeaderSize+5] ^= 0x20 // payload bit flip in record 1
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder invariants on the raw bytes.
		var records int64
		n, clean, err := wal.DecodeSegment(bytes.NewReader(data), fuzzLimit, func(_ string, env []byte) error {
			records++
			return nil
		})
		if n != records {
			t.Fatalf("reported %d records, delivered %d", n, records)
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if err != nil && !errors.Is(err, wal.ErrDamaged) {
			t.Fatalf("decode error not classified as damage: %v", err)
		}
		if err != nil && errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("damage error satisfies bare io.EOF: %v", err)
		}

		// The clean prefix must re-decode deterministically and fully.
		n2, clean2, err2 := wal.DecodeSegment(bytes.NewReader(data[:clean]), fuzzLimit, func(string, []byte) error { return nil })
		if err2 != nil {
			t.Fatalf("clean prefix re-decode failed: %v", err2)
		}
		if n2 != n || clean2 != clean {
			t.Fatalf("clean prefix re-decode gave (%d, %d), first pass gave (%d, %d)", n2, clean2, n, clean)
		}

		// End to end: the same bytes planted as a live segment must
		// boot. Open truncates the torn tail; Replay surfaces mid-log
		// damage as a stat, not an error; appends work afterwards.
		dir := t.TempDir()
		if werr := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		l, oerr := wal.Open(dir, wal.Options{MaxRecordBytes: fuzzLimit})
		if oerr != nil {
			t.Fatalf("Open on fuzzed segment: %v", oerr)
		}
		defer l.Close()
		var replayed int64
		st, rerr := l.Replay(func(_ string, env []byte) error {
			replayed++
			return nil
		})
		if rerr != nil {
			t.Fatalf("Replay on fuzzed segment: %v", rerr)
		}
		if st.Records != replayed {
			t.Fatalf("replay stats report %d records, delivered %d", st.Records, replayed)
		}
		if !st.Damaged && replayed != n {
			t.Fatalf("undamaged replay delivered %d records, decoder saw %d", replayed, n)
		}
		sk := kmv.New(4, 777)
		sk.Process(42)
		env, eerr := sketch.Envelope(sk)
		if eerr != nil {
			t.Fatal(eerr)
		}
		if aerr := l.AppendNamed("", env); aerr != nil {
			t.Fatalf("append after fuzzed replay: %v", aerr)
		}
	})
}
