package server

import (
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/wire"

	_ "repro/internal/sketch/kinds"
)

// benchEnvelopes builds nsites populated site envelopes of one kind,
// all sharing a seed so they land in one merge group.
func benchEnvelopes(b *testing.B, info sketch.KindInfo, nsites int) [][]byte {
	b.Helper()
	msgs := make([][]byte, nsites)
	for i := range msgs {
		sk := info.New(0.1, 1)
		r := hashing.NewXoshiro256(uint64(100 + i))
		for j := 0; j < 4096; j++ {
			sk.Process(r.Uint64n(1 << 20))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			b.Fatal(err)
		}
		msgs[i] = env
	}
	return msgs
}

// BenchmarkAbsorbSketch measures the coordinator's absorb path —
// envelope stage, group routing, merge — per registered kind, cycling
// through distinct site sketches so merges do real work.
func BenchmarkAbsorbSketch(b *testing.B) {
	for _, info := range sketch.Kinds() {
		b.Run(info.Name, func(b *testing.B) {
			msgs := benchEnvelopes(b, info, 8)
			srv := New(Config{})
			b.SetBytes(int64(len(msgs[0])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ack := srv.absorbSketch("", msgs[i%len(msgs)], nil); ack.Code != wire.AckOK {
					b.Fatalf("absorb: %v: %s", ack.Code, ack.Detail)
				}
			}
		})
	}
}

// BenchmarkAbsorbSketchCrossKind measures the same path on a server
// holding one group per registered kind, with pushes arriving
// round-robin across kinds — the group-routing cost when a coordinator
// serves a heterogeneous fleet.
func BenchmarkAbsorbSketchCrossKind(b *testing.B) {
	var msgs [][]byte
	for _, info := range sketch.Kinds() {
		msgs = append(msgs, benchEnvelopes(b, info, 2)...)
	}
	srv := New(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ack := srv.absorbSketch("", msgs[i%len(msgs)], nil); ack.Code != wire.AckOK {
			b.Fatalf("absorb: %v: %s", ack.Code, ack.Detail)
		}
	}
}
