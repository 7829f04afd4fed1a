package harness

import (
	"math"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/hashing"
	"repro/internal/stream"
)

func init() {
	Register(Experiment{
		ID:    "E2",
		Title: "Relative error vs sample capacity c",
		Claim: "The sampler is an (ε,δ)-estimator with c = Θ(1/ε²): observed error should shrink like 1/√c.",
		Run:   runE2,
	})
}

func runE2(cfg Config) ([]*Table, error) {
	capacities := []int{16, 64, 256, 1024, 4096, 16384}
	if cfg.Quick {
		capacities = []int{16, 64, 256, 1024}
	}
	trials := cfg.trials(200)
	truth := cfg.scale(200_000)

	tbl := NewTable("e2_error_vs_capacity",
		"Observed error quantiles vs capacity (single sampler copy)",
		"eps_theory = sqrt(12/c), the ε our CapacityForEpsilon constant targets. Labels are distinct and pseudo-random (a keyed bijective mix of 0…n-1). The median column should halve every 4× capacity (the 1/√c law).",
		"capacity", "eps_theory", "median_err", "p90_err", "p95_err", "fail_rate@eps")

	medians := make([]float64, len(capacities))
	for i, c := range capacities {
		eps := core.EpsilonForCapacity(c)
		errs := estimate.RunTrials(trials, cfg.Seed+uint64(c), func(seed uint64) float64 {
			s := core.NewSampler(core.Config{Capacity: c, Seed: seed})
			// Sequential labels sit on a lattice under the affine
			// pairwise hash, so level populations barely vary and the
			// error undershoots the law (E10 studies key structure).
			// A keyed bijective mix keeps `truth` distinct labels with
			// no structure. The key is not Mix64(seed): that is the
			// first value of the SplitMix64 stream the hash is drawn
			// from.
			key := hashing.Mix64(^seed)
			stream.Feed(stream.NewSequential(truth), func(it stream.Item) { s.Process(hashing.Mix64(it.Label ^ key)) })
			return estimate.RelErr(s.EstimateDistinct(), float64(truth))
		})
		sum := estimate.Summarize(errs, eps)
		medians[i] = sum.Median
		tbl.AddRow(I(c), F(eps, 4), F(sum.Median, 4), F(sum.P90, 4), F(sum.P95, 4), Pct(sum.FailureRate))
	}

	// Scaling check table: ratio of median errors between successive
	// capacities; the 1/√c law predicts ~0.5 per 4× step.
	tbl2 := NewTable("e2_scaling_law",
		"Error scaling between successive 4x capacity steps",
		"ratio = median_err(c)/median_err(c/4); the 1/√c law predicts 0.5.",
		"capacity_step", "observed_ratio", "predicted")
	for i := 1; i < len(capacities); i++ {
		ratio := math.NaN()
		if medians[i-1] > 0 {
			ratio = medians[i] / medians[i-1]
		}
		tbl2.AddRow(I(capacities[i-1])+"→"+I(capacities[i]), F(ratio, 3), "0.500")
	}
	return []*Table{tbl, tbl2}, nil
}
