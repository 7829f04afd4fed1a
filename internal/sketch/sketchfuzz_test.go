// Decoder-robustness suite for the registry: every registered kind's
// decoder — reached the same way the coordinator reaches it, through
// sketch.Open — must survive arbitrary and corrupted envelopes
// without panicking, and refuse them with a typed error. The table of
// per-type encoders the pre-registry version of this file
// hand-maintained is gone: iterating sketch.Kinds() means a newly
// registered kind is fuzzed with no test edit at all.
package sketch_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketch"

	// Register every kind so the suite covers the full registry.
	_ "repro/internal/sketch/kinds"
)

// seedEnvelope builds a valid, populated envelope for the kind.
func seedEnvelope(tb testing.TB, info sketch.KindInfo) []byte {
	tb.Helper()
	sk := info.New(0.25, 1)
	for x := uint64(0); x < 1000; x++ {
		sk.Process(x)
	}
	env, err := sketch.Envelope(sk)
	if err != nil {
		tb.Fatalf("%s: envelope: %v", info.Name, err)
	}
	return env
}

func TestDecodersNeverPanic(t *testing.T) {
	for _, info := range sketch.Kinds() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			enc := seedEnvelope(t, info)
			r := hashing.NewXoshiro256(3)
			for trial := 0; trial < 2000; trial++ {
				var data []byte
				if trial%2 == 0 {
					data = make([]byte, r.Intn(140))
					for i := range data {
						data[i] = byte(r.Uint64())
					}
				} else {
					data = append([]byte(nil), enc...)
					for k := 0; k < 1+r.Intn(4); k++ {
						data[r.Intn(len(data))] = byte(r.Uint64())
					}
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("Open panicked on trial %d: %v", trial, p)
						}
					}()
					// Callers classify a refusal with errors.Is (the
					// coordinator acks an unknown kind AckUnsupported and
					// anything else AckCorrupt), so a decoder must wrap
					// its sentinel with %w, never flatten it with %v.
					_, err := sketch.Open(data)
					if err != nil && !errors.Is(err, sketch.ErrCorrupt) && !errors.Is(err, sketch.ErrUnknownKind) {
						t.Fatalf("trial %d: Open refused with an untyped error: %v", trial, err)
					}
				}()
			}
		})
	}
}

// kmvEnvelope frames a hand-built kmv payload — k, a declared count,
// then raw uvarint deltas — under a correct envelope header.
func kmvEnvelope(k, count uint64, deltas ...uint64) []byte {
	const seed = 1
	info, _ := sketch.Lookup(sketch.KindKMV)
	b := []byte{sketch.EnvelopeMagic0, sketch.EnvelopeMagic1, byte(info.Kind), info.Version}
	b = binary.LittleEndian.AppendUint64(b, sketch.ConfigDigest(sketch.KindKMV, k, seed))
	b = append(b, 'K', 'V', '1')
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.AppendUvarint(b, k)
	b = binary.AppendUvarint(b, count)
	for _, d := range deltas {
		b = binary.AppendUvarint(b, d)
	}
	return b
}

// FuzzSketchOpen drives Open with arbitrary bytes: it must never
// panic, and anything it accepts must re-envelope to bytes Open
// accepts again with the same kind and digest.
func FuzzSketchOpen(f *testing.F) {
	for _, info := range sketch.Kinds() {
		f.Add(seedEnvelope(f, info))
	}
	f.Add([]byte{})
	f.Add([]byte{sketch.EnvelopeMagic0, sketch.EnvelopeMagic1})
	// kmv payloads the decoder must refuse: a count of 2^22 values in a
	// 20-byte payload, and a delta that wraps past 2^64.
	f.Add(kmvEnvelope(1<<22, 1<<22, 1))
	f.Add(kmvEnvelope(8, 2, math.MaxUint64-4, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := sketch.Open(data)
		if err != nil {
			return
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatalf("accepted sketch does not re-envelope: %v", err)
		}
		// The envelope header is canonical, so the re-encoded header
		// must equal the input's.
		if !bytes.Equal(env[:sketch.EnvelopeHeaderSize], data[:sketch.EnvelopeHeaderSize]) {
			t.Fatalf("re-enveloped header differs from input header")
		}
		if _, err := sketch.Open(env); err != nil {
			t.Fatalf("re-enveloped sketch rejected: %v", err)
		}
	})
}
