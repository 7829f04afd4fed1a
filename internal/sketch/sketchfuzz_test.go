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

// gtCapacity is the capacity of the hand-built gt copies below.
const gtCapacity = 64

// gtCopy hand-encodes one gt sampler copy: capacity gtCapacity, the
// pairwise family and the increment raise policy, then the given seed,
// level and count, then raw uvarints (label delta, weight pairs).
func gtCopy(seed, level, count uint64, varints ...uint64) []byte {
	b := []byte{'G', 'T', 1, 0, 0}
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.AppendUvarint(b, gtCapacity)
	b = binary.AppendUvarint(b, level)
	b = binary.AppendUvarint(b, count)
	for _, v := range varints {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// gtEnvelope frames hand-built copies as one gt payload with master
// seed seed, under an envelope header whose digest matches the master
// fields.
func gtEnvelope(seed uint64, copies ...[]byte) []byte {
	info, _ := sketch.Lookup(sketch.KindGT)
	b := []byte{sketch.EnvelopeMagic0, sketch.EnvelopeMagic1, byte(info.Kind), info.Version}
	b = binary.LittleEndian.AppendUint64(b, sketch.ConfigDigest(sketch.KindGT, gtCapacity, uint64(len(copies)), seed, 0, 0))
	b = append(b, 'G', 'T', 1)
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.AppendUvarint(b, uint64(len(copies)))
	for _, c := range copies {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return b
}

// gtForgeries returns one valid two-entry gt envelope and forged
// variants of it that Open and Stage must both refuse, each named by
// the check that refuses it.
func gtForgeries() (valid []byte, forged []struct {
	name string
	env  []byte
}) {
	const master = 9
	seed := hashing.NewSplitMix64(master).Next() // copy 0's derived seed
	// A label of level 0 under copy 0's hash, for a copy declaring
	// level 1.
	low := uint64(1)
	for hashing.GeometricLevel(hashing.NewPairwise(seed).Hash(low)) != 0 {
		low++
	}
	valid = gtEnvelope(master, gtCopy(seed, 0, 2, 5, 1, 3, 1))
	digest := bytes.Clone(valid)
	digest[4] ^= 1
	forged = []struct {
		name string
		env  []byte
	}{
		{"copy seed not derived from the master seed", gtEnvelope(master, gtCopy(seed+1, 0, 2, 5, 1, 3, 1))},
		{"label below the declared level", gtEnvelope(master, gtCopy(seed, 1, 1, low, 1))},
		{"zero label delta", gtEnvelope(master, gtCopy(seed, 0, 2, 5, 1, 0, 1))},
		{"count larger than the payload holds", gtEnvelope(master, gtCopy(seed, 0, 40, 5, 1, 3, 1))},
		{"trailing bytes", gtEnvelope(master, gtCopy(seed, 0, 2, 5, 1, 3, 1, 7))},
		{"header digest disagrees with the payload", digest},
	}
	return valid, forged
}

// errClass is the refusal class a caller acts on: the coordinator acks
// an unknown kind AckUnsupported and any other refusal AckCorrupt.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, sketch.ErrUnknownKind):
		return "ErrUnknownKind"
	case errors.Is(err, sketch.ErrCorrupt):
		return "ErrCorrupt"
	default:
		return "untyped"
	}
}

// FuzzSketchOpen drives Open with arbitrary bytes: it must never
// panic, and anything it accepts must re-envelope to bytes Open
// accepts again with the same kind and digest. Stage must accept
// exactly what Open accepts, refuse the rest with the same error
// class, and fold an accepted input into Open(input) exactly as Merge
// folds a second Open(input).
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
	valid, forged := gtForgeries()
	if _, err := sketch.Open(valid); err != nil {
		f.Fatalf("hand-built gt envelope refused: %v", err)
	}
	f.Add(valid)
	for _, fg := range forged {
		if _, err := sketch.Open(fg.env); !errors.Is(err, sketch.ErrCorrupt) {
			f.Fatalf("gt envelope with a %s: Open err = %v, want ErrCorrupt", fg.name, err)
		}
		if _, err := sketch.Stage(fg.env); !errors.Is(err, sketch.ErrCorrupt) {
			f.Fatalf("gt envelope with a %s: Stage err = %v, want ErrCorrupt", fg.name, err)
		}
		f.Add(fg.env)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := sketch.Open(data)
		st, serr := sketch.Stage(data)
		if errClass(err) != errClass(serr) {
			t.Fatalf("Open: %v; Stage: %v", err, serr)
		}
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
		folded, _ := sketch.Open(data)
		if err := st.MergeInto(folded); err != nil {
			t.Fatalf("staged input does not fold into its own open: %v", err)
		}
		merged, _ := sketch.Open(data)
		again, _ := sketch.Open(data)
		if err := merged.Merge(again); err != nil {
			t.Fatalf("opened input does not merge into its own open: %v", err)
		}
		got, gerr := folded.MarshalBinary()
		want, werr := merged.MarshalBinary()
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("staged fold encodes differently from Merge (errs %v, %v)", gerr, werr)
		}
	})
}
