package distnet

// Chaos suite for the full network transport: distnet runs routed
// through a seeded faultnet proxy must still reproduce the in-process
// simulator exactly — estimates AND byte accounting — because every
// fault the schedule can inject (dropped dials, mid-frame cuts,
// corrupted bytes, swallowed acks, duplicated deliveries) is absorbed
// by the retry loop on one side and the idempotent, commutative merge
// on the other.
//
// Run with -chaos.seed=N to pin the fault schedule; ci.sh sweeps
// seeds 1..3.

import (
	"flag"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/faultnet"
)

var chaosSeed = flag.Uint64("chaos.seed", 0, "fault schedule seed for the chaos suite (0 = default seed 1)")

func chaosSeeds() []uint64 {
	if *chaosSeed != 0 {
		return []uint64{*chaosSeed}
	}
	return []uint64{1}
}

func chaosOpts(seed uint64, proxy **faultnet.Proxy) Options {
	return Options{
		Attempts:    25,
		BackoffBase: time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		Intercept: func(serverAddr string) (string, io.Closer, error) {
			p, err := faultnet.New(serverAddr, faultnet.Seeded(seed))
			if err != nil {
				return "", nil, err
			}
			*proxy = p
			return p.Addr(), p, nil
		},
	}
}

// TestChaosNetworkRunMatchesSimulator: a serial distnet run through
// the fault proxy must equal distsim.Run on the same sources in every
// field — estimates bit for bit, and byte accounting too, because
// retries and duplicate deliveries are protocol noise, not protocol
// cost. Replaying the same seed must reproduce the identical fault
// trace.
func TestChaosNetworkRunMatchesSimulator(t *testing.T) {
	for _, seed := range chaosSeeds() {
		srcs := overlapSources(6, seed+20)
		p := distsim.GT(core.EstimatorConfig{Capacity: 256, Copies: 3, Seed: 909})
		want, err := distsim.Run(p, srcs, false)
		if err != nil {
			t.Fatal(err)
		}

		run := func() (*distsim.Result, string) {
			var proxy *faultnet.Proxy
			got, err := RunOptions(p, srcs, false, chaosOpts(seed, &proxy))
			if err != nil {
				t.Fatalf("seed %d: chaos run failed: %v", seed, err)
			}
			// RunOptions closed the proxy, waiting for its handlers,
			// before shutting the coordinator down: the trace is final.
			return got, proxy.TraceString()
		}

		got, trace1 := run()
		if got.DistinctEstimate != want.DistinctEstimate {
			t.Errorf("seed %d: distinct %.6f != simulator %.6f", seed, got.DistinctEstimate, want.DistinctEstimate)
		}
		if got.SumEstimate != want.SumEstimate {
			t.Errorf("seed %d: sum %.6f != simulator %.6f", seed, got.SumEstimate, want.SumEstimate)
		}
		if got.Stats.BytesSent != want.Stats.BytesSent {
			t.Errorf("seed %d: bytes %d != simulator %d (retries must not be billed)", seed, got.Stats.BytesSent, want.Stats.BytesSent)
		}
		if got.Stats.ItemsProcessed != want.Stats.ItemsProcessed {
			t.Errorf("seed %d: items %d != %d", seed, got.Stats.ItemsProcessed, want.Stats.ItemsProcessed)
		}

		got2, trace2 := run()
		if got2.DistinctEstimate != got.DistinctEstimate || got2.SumEstimate != got.SumEstimate {
			t.Errorf("seed %d: two runs of the same schedule disagree", seed)
		}
		if trace1 != trace2 {
			t.Errorf("seed %d: fault trace not reproducible\n--- run 1\n%s--- run 2\n%s", seed, trace1, trace2)
		}
		if trace1 == "" {
			t.Errorf("seed %d: empty fault trace — proxy never saw traffic", seed)
		}
	}
}

// TestChaosConcurrentSitesThroughProxy: with sites pushing in
// parallel the fault *assignment* is no longer deterministic (accept
// order races), but the estimates still must not move — commutativity
// and idempotence hold under any interleaving of faults and retries.
func TestChaosConcurrentSitesThroughProxy(t *testing.T) {
	for _, seed := range chaosSeeds() {
		srcs := overlapSources(6, seed+21)
		p := distsim.GT(core.EstimatorConfig{Capacity: 256, Copies: 3, Seed: 910})
		want, err := distsim.Run(p, srcs, false)
		if err != nil {
			t.Fatal(err)
		}
		var proxy *faultnet.Proxy
		got, err := RunOptions(p, srcs, true, chaosOpts(seed, &proxy))
		if err != nil {
			t.Fatalf("seed %d: concurrent chaos run failed: %v", seed, err)
		}
		if got.DistinctEstimate != want.DistinctEstimate || got.SumEstimate != want.SumEstimate {
			t.Errorf("seed %d: concurrent chaos estimates (%.6f, %.6f) != simulator (%.6f, %.6f)",
				seed, got.DistinctEstimate, got.SumEstimate, want.DistinctEstimate, want.SumEstimate)
		}
	}
}
