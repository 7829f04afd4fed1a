package distnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/sketch/ll"
	"repro/internal/stream"
)

func overlapSources(t int, seed uint64) []stream.Source {
	return stream.OverlapConfig{
		Sites: t, PerSite: 4000, CoreSize: 1500, PrivateSize: 1500,
		Overlap: 0.5, Seed: seed,
	}.Build()
}

var fastOpts = Options{Attempts: 3, BackoffBase: 5 * time.Millisecond}

// TestNetworkMatchesInProcess: running the paper's protocol over real
// loopback sockets must reproduce the channel simulator exactly —
// estimates and byte accounting both.
func TestNetworkMatchesInProcess(t *testing.T) {
	srcs := overlapSources(8, 1)
	p := distsim.GT(core.EstimatorConfig{Capacity: 512, Copies: 5, Seed: 7})

	want, err := distsim.Run(p, srcs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, concurrent := range []bool{false, true} {
		got, err := RunOptions(p, srcs, concurrent, fastOpts)
		if err != nil {
			t.Fatalf("concurrent=%v: %v", concurrent, err)
		}
		if got.DistinctEstimate != want.DistinctEstimate {
			t.Errorf("concurrent=%v: distinct %.4f != %.4f", concurrent, got.DistinctEstimate, want.DistinctEstimate)
		}
		if got.SumEstimate != want.SumEstimate {
			t.Errorf("concurrent=%v: sum %.4f != %.4f", concurrent, got.SumEstimate, want.SumEstimate)
		}
		if got.Stats.BytesSent != want.Stats.BytesSent {
			t.Errorf("concurrent=%v: bytes %d != %d", concurrent, got.Stats.BytesSent, want.Stats.BytesSent)
		}
		if got.Stats.Messages != want.Stats.Messages || got.Stats.MaxSiteBytes != want.Stats.MaxSiteBytes {
			t.Errorf("concurrent=%v: stats %+v != %+v", concurrent, got.Stats, want.Stats)
		}
		if got.Stats.ItemsProcessed != want.Stats.ItemsProcessed {
			t.Errorf("concurrent=%v: items %d != %d", concurrent, got.Stats.ItemsProcessed, want.Stats.ItemsProcessed)
		}
		if got.Stats.Sites != len(srcs) {
			t.Errorf("concurrent=%v: sites %d", concurrent, got.Stats.Sites)
		}
	}
}

// TestBaselineProtocolsOverNetwork: the transport is
// protocol-agnostic — the opaque path must carry every simulator
// protocol, not just the paper's.
func TestBaselineProtocolsOverNetwork(t *testing.T) {
	srcs := overlapSources(4, 3)
	for _, p := range []distsim.Protocol{
		distsim.KindProtocol{Label: "kmv", New: func(int) sketch.Sketch { return kmv.New(256, 5) }},
		distsim.KindProtocol{Label: "hll", New: func(int) sketch.Sketch { return ll.New(256, 5) }},
		distsim.Exact(),
	} {
		want, err := distsim.Run(p, srcs, false)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got, err := RunOptions(p, srcs, true, fastOpts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got.DistinctEstimate != want.DistinctEstimate {
			t.Errorf("%s: distinct %.4f != %.4f", p.Name(), got.DistinctEstimate, want.DistinctEstimate)
		}
		sumsEqual := got.SumEstimate == want.SumEstimate ||
			(math.IsNaN(got.SumEstimate) && math.IsNaN(want.SumEstimate))
		if !sumsEqual {
			t.Errorf("%s: sum %.4f != %.4f", p.Name(), got.SumEstimate, want.SumEstimate)
		}
		if got.Stats.BytesSent != want.Stats.BytesSent {
			t.Errorf("%s: bytes %d != %d", p.Name(), got.Stats.BytesSent, want.Stats.BytesSent)
		}
	}
}

func TestRunNoSources(t *testing.T) {
	if _, err := Run(distsim.Exact(), nil, false); err == nil {
		t.Error("Run with no sources succeeded")
	}
}

func TestByteAccountantPerSite(t *testing.T) {
	a := distsim.NewByteAccountant()
	a.Record(100)
	a.Record(250)
	a.Record(50)
	var st distsim.Stats
	st.Sites = 2
	a.FillStats(&st)
	if st.Messages != 3 || st.BytesSent != 400 || st.MaxSiteBytes != 250 || st.Sites != 2 {
		t.Errorf("FillStats: %+v", st)
	}
}
