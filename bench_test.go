// Package repro's root benchmarks regenerate every experiment table
// (one Benchmark per experiment E1–E10, see DESIGN.md) and measure the
// per-item micro-costs the paper's time claims are about. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the same code as cmd/gtbench in
// quick mode; the micro benchmarks isolate the hot paths.
package repro

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/hashing"
	"repro/internal/sketch/ams"
	"repro/internal/sketch/bjkst"
	"repro/internal/sketch/fm"
	"repro/internal/sketch/kmv"
	"repro/internal/sketch/ll"
	"repro/internal/window"
	"repro/unionstream"
)

// --- Micro benchmarks: per-item processing cost (the E5 quantities).

// benchLabels pre-generates labels so generator cost stays out of the
// measurement.
func benchLabels(n int) []uint64 {
	r := hashing.NewXoshiro256(42)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64n(uint64(n))
	}
	return out
}

func BenchmarkGTProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := core.NewSampler(core.Config{Capacity: 1024, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkGTProcessEstimator5Copies(b *testing.B) {
	labels := benchLabels(1 << 20)
	e := core.NewEstimator(core.EstimatorConfig{Capacity: 1024, Copies: 5, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkFMProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := fm.New(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkAMSProcess15Copies(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := ams.New(15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkKMVProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := kmv.New(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkBJKSTProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := bjkst.New(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkHLLProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := ll.New(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(labels[i&(1<<20-1)])
	}
}

func BenchmarkPairwiseHash(b *testing.B) {
	h := hashing.NewPairwise(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkTabulationHash(b *testing.B) {
	h := hashing.NewTabulation(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i))
	}
	_ = sink
}

// --- Serialization and merge costs (the communication path).

func builtSampler(capacity int) *core.Sampler {
	s := core.NewSampler(core.Config{Capacity: capacity, Seed: 3})
	for _, l := range benchLabels(1 << 17) {
		s.Process(l)
	}
	return s
}

func BenchmarkGTMarshal(b *testing.B) {
	s := builtSampler(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGTUnmarshal(b *testing.B) {
	enc, err := builtSampler(4096).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s core.Sampler
		if err := s.UnmarshalBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGTMerge(b *testing.B) {
	enc, err := builtSampler(4096).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	y := core.NewSampler(core.Config{Capacity: 4096, Seed: 3})
	r := hashing.NewXoshiro256(9)
	for i := 0; i < 1<<17; i++ {
		y.Process(r.Uint64n(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.DecodeSampler(enc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionstreamAdd(b *testing.B) {
	labels := benchLabels(1 << 20)
	s, err := unionstream.New(unionstream.Options{Epsilon: 0.05, Delta: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(labels[i&(1<<20-1)])
	}
}

func BenchmarkWindowProcess(b *testing.B) {
	labels := benchLabels(1 << 20)
	s := window.New(window.Config{Capacity: 1024, Seed: 1, MaxLevel: 24})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Process(labels[i&(1<<20-1)], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	s := window.New(window.Config{Capacity: 1024, Seed: 1, MaxLevel: 24})
	labels := benchLabels(1 << 18)
	for i, l := range labels {
		if err := s.Process(l, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EstimateDistinctSince(uint64(len(labels) - 10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment benchmarks: one per table/figure in DESIGN.md. Each
// runs the full experiment (quick scale, small ensembles) once per
// iteration, so ns/op is the wall cost of regenerating that table.

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := harness.Config{Seed: 7, Quick: true, Trials: 3, Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1AccuracyAtEqualSpace(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2ErrorVsCapacity(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3UnionAcrossSites(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4SpaceVsEpsilon(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5PerItemTime(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6CommunicationCost(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7MedianBoosting(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8SumDistinct(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9PredicateSelectivity(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10HashFamilies(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11SlidingWindows(b *testing.B)      { benchExperiment(b, "E11") }
