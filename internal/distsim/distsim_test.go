package distsim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/sketch"
	"repro/internal/sketch/ams"
	"repro/internal/sketch/bjkst"
	"repro/internal/sketch/fm"
	"repro/internal/sketch/kmv"
	"repro/internal/sketch/ll"
	"repro/internal/stream"
)

// unionTruth computes the exact distinct count and sum of the union.
func unionTruth(sources []stream.Source) (distinct int, sum uint64) {
	d := exact.NewDistinct()
	for _, s := range sources {
		stream.Feed(s, func(it stream.Item) { d.ProcessWeighted(it.Label, it.Value) })
	}
	return d.Count(), d.Sum()
}

// baselines returns the five baseline kinds as protocols: fm with maps
// bitmaps, kmv, bjkst and hll with size entries, ams with copies
// copies, every site with the same seed.
func baselines(maps, size, copies int, seed uint64) []KindProtocol {
	return []KindProtocol{
		{Label: "fm-pcsa", New: func(int) sketch.Sketch { return fm.New(maps, seed) }},
		{Label: "kmv", New: func(int) sketch.Sketch { return kmv.New(size, seed) }},
		{Label: "bjkst", New: func(int) sketch.Sketch { return bjkst.New(size, seed) }},
		{Label: "hll", New: func(int) sketch.Sketch { return ll.New(size, seed) }},
		{Label: "ams", New: func(int) sketch.Sketch { return ams.New(copies, seed) }},
	}
}

func overlapSources(t int, seed uint64) []stream.Source {
	return stream.OverlapConfig{
		Sites: t, PerSite: 5000, CoreSize: 2000, PrivateSize: 2000,
		Overlap: 0.5, Seed: seed,
	}.Build()
}

func TestGTProtocolAccuracy(t *testing.T) {
	srcs := overlapSources(8, 1)
	truth, _ := unionTruth(srcs)
	res, err := Run(GT(core.EstimatorConfig{Capacity: 1024, Copies: 9, Seed: 7}), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(res.DistinctEstimate-float64(truth)) / float64(truth)
	if rel > 0.12 {
		t.Errorf("estimate %.0f vs truth %d: rel %.3f", res.DistinctEstimate, truth, rel)
	}
	if res.Stats.Sites != 8 || res.Stats.Messages != 8 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if res.Stats.ItemsProcessed != 8*5000 {
		t.Errorf("items processed = %d", res.Stats.ItemsProcessed)
	}
	if res.Stats.BytesSent == 0 || res.Stats.MaxSiteBytes == 0 {
		t.Error("no bytes accounted")
	}
}

func TestConcurrentMatchesSerial(t *testing.T) {
	// Merge commutativity ⇒ the coordinator's answer must not depend
	// on message arrival order. Run both modes repeatedly.
	srcs := overlapSources(16, 3)
	p := GT(core.EstimatorConfig{Capacity: 256, Copies: 5, Seed: 9})
	serial, err := Run(p, srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		conc, err := Run(p, srcs, true)
		if err != nil {
			t.Fatal(err)
		}
		if conc.DistinctEstimate != serial.DistinctEstimate {
			t.Fatalf("run %d: concurrent %.0f != serial %.0f", i, conc.DistinctEstimate, serial.DistinctEstimate)
		}
		if conc.SumEstimate != serial.SumEstimate {
			t.Fatalf("run %d: sum estimates differ", i)
		}
	}
}

func TestUncoordinatedOvercounts(t *testing.T) {
	// With 50% overlap across 8 sites, summing per-site estimates
	// must exceed the union truth substantially, while GT stays close.
	srcs := overlapSources(8, 5)
	truth, _ := unionTruth(srcs)
	cfg := core.EstimatorConfig{Capacity: 1024, Copies: 5, Seed: 11}

	gt, err := Run(GT(cfg), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	un, err := Run(Uncoordinated{Config: cfg}, srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	gtRel := math.Abs(gt.DistinctEstimate-float64(truth)) / float64(truth)
	unRel := math.Abs(un.DistinctEstimate-float64(truth)) / float64(truth)
	if gtRel > 0.12 {
		t.Errorf("GT rel err %.3f too high", gtRel)
	}
	if unRel < 0.3 {
		t.Errorf("uncoordinated rel err %.3f suspiciously low; expected heavy overcount", unRel)
	}
	if un.DistinctEstimate <= gt.DistinctEstimate {
		t.Error("uncoordinated did not overcount relative to GT")
	}
}

func TestExactProtocol(t *testing.T) {
	srcs := overlapSources(4, 7)
	truth, sumTruth := unionTruth(srcs)
	res, err := Run(Exact(), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctEstimate != float64(truth) {
		t.Errorf("exact distinct %.0f != %d", res.DistinctEstimate, truth)
	}
	if res.SumEstimate != float64(sumTruth) {
		t.Errorf("exact sum %.0f != %d", res.SumEstimate, sumTruth)
	}
}

func TestGTCommunicationFarBelowExact(t *testing.T) {
	srcs := overlapSources(8, 9)
	gt, err := Run(GT(core.EstimatorConfig{Capacity: 256, Copies: 5, Seed: 3}), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Run(Exact(), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Stats.BytesSent*4 > ex.Stats.BytesSent {
		t.Errorf("GT bytes %d not well below exact bytes %d", gt.Stats.BytesSent, ex.Stats.BytesSent)
	}
}

func TestBaselineProtocols(t *testing.T) {
	srcs := overlapSources(6, 11)
	truth, _ := unionTruth(srcs)
	tols := []float64{0.25, 0.15, 0.15, 0.15, 7.0} // ams: constant-factor only
	for i, p := range baselines(512, 1024, 15, 21) {
		res, err := Run(p, srcs, false)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		rel := math.Abs(res.DistinctEstimate-float64(truth)) / float64(truth)
		if rel > tols[i] {
			t.Errorf("%s: rel err %.3f > %.2f (est %.0f, truth %d)",
				p.Name(), rel, tols[i], res.DistinctEstimate, truth)
		}
		if !math.IsNaN(res.SumEstimate) {
			t.Errorf("%s: expected NaN sum estimate", p.Name())
		}
		if res.Stats.BytesSent == 0 {
			t.Errorf("%s: no communication accounted", p.Name())
		}
	}
}

func TestBaselineConcurrentMatchesSerial(t *testing.T) {
	srcs := overlapSources(8, 13)
	for _, p := range baselines(128, 256, 7, 5) {
		serial, err := Run(p, srcs, false)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := Run(p, srcs, true)
		if err != nil {
			t.Fatal(err)
		}
		if serial.DistinctEstimate != conc.DistinctEstimate {
			t.Errorf("%s: concurrent %.0f != serial %.0f", p.Name(), conc.DistinctEstimate, serial.DistinctEstimate)
		}
	}
}

func TestRunNoSources(t *testing.T) {
	if _, err := Run(Exact(), nil, false); err == nil {
		t.Error("Run with no sources succeeded")
	}
}

func TestSingleSiteMatchesLocal(t *testing.T) {
	// One site, t=1: the distributed answer must equal running the
	// estimator locally.
	src := stream.NewUniform(5000, 20000, 3)
	cfg := core.EstimatorConfig{Capacity: 512, Copies: 5, Seed: 9}
	res, err := Run(GT(cfg), []stream.Source{src}, false)
	if err != nil {
		t.Fatal(err)
	}
	local := core.NewEstimator(cfg)
	stream.Feed(src, func(it stream.Item) { local.ProcessWeighted(it.Label, it.Value) })
	if res.DistinctEstimate != local.EstimateDistinct() {
		t.Errorf("distributed %.0f != local %.0f", res.DistinctEstimate, local.EstimateDistinct())
	}
}

func TestGTSumAcrossSites(t *testing.T) {
	// Valued items duplicated across sites: the union sum must count
	// each label's value once.
	base := stream.NewWithValues(stream.NewUniform(3000, 10000, 5), func(l uint64) uint64 { return l%9 + 1 })
	items := stream.Collect(base)
	// Every site sees the same stream — worst-case duplication.
	srcs := []stream.Source{
		stream.FromSlice(items), stream.FromSlice(items), stream.FromSlice(items),
	}
	truth, sumTruth := unionTruth(srcs)
	res, err := Run(GT(core.EstimatorConfig{Capacity: 1024, Copies: 9, Seed: 13}), srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.DistinctEstimate-float64(truth)) / float64(truth); rel > 0.12 {
		t.Errorf("distinct rel %.3f", rel)
	}
	if rel := math.Abs(res.SumEstimate-float64(sumTruth)) / float64(sumTruth); rel > 0.12 {
		t.Errorf("sum rel %.3f", rel)
	}
}

func TestProtocolNames(t *testing.T) {
	names := map[string]Protocol{
		"gt-coordinated":    GT(core.EstimatorConfig{}),
		"uncoordinated-sum": Uncoordinated{},
		"exact-dedup":       Exact(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestCoordinatorRejectsGarbage(t *testing.T) {
	protocols := []Protocol{GT(core.EstimatorConfig{Capacity: 8, Copies: 3, Seed: 1})}
	for _, p := range baselines(16, 16, 3, 1) {
		protocols = append(protocols, p)
	}
	for _, p := range protocols {
		c := p.NewCoordinator()
		if err := c.Absorb([]byte("garbage message")); err == nil {
			t.Errorf("%s: coordinator accepted garbage", p.Name())
		}
	}
}

// failingProtocol is Exact, except that site 1 cannot encode its
// message.
type failingProtocol struct{ err error }

func (p failingProtocol) Name() string                { return "failing" }
func (p failingProtocol) NewCoordinator() Coordinator { return Exact().NewCoordinator() }
func (p failingProtocol) NewSite(i int) SiteSketch {
	if i == 1 {
		return failingSite{p.err}
	}
	return Exact().NewSite(i)
}

type failingSite struct{ err error }

func (failingSite) Process(stream.Item)        {}
func (s failingSite) Message() ([]byte, error) { return nil, s.err }

// TestRunSiteErrorPropagates: a site whose message cannot be encoded
// must fail the run with its error, serially and concurrently, rather
// than leave its stream out of the union.
func TestRunSiteErrorPropagates(t *testing.T) {
	boom := errors.New("site cannot encode")
	for _, concurrent := range []bool{false, true} {
		if _, err := Run(failingProtocol{boom}, overlapSources(3, 1), concurrent); !errors.Is(err, boom) {
			t.Errorf("concurrent=%v: err = %v, want the site's error", concurrent, err)
		}
	}
}
