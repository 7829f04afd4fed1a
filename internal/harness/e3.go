package harness

import (
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/stream"
)

func init() {
	Register(Experiment{
		ID:    "E3",
		Title: "Union estimation across t sites with controlled overlap",
		Claim: "Coordinated sketches merge into an (ε,δ)-estimate of the set union regardless of cross-site duplication; summing uncoordinated per-site estimates overcounts by the duplication factor.",
		Run:   runE3,
	})
}

func runE3(cfg Config) ([]*Table, error) {
	sitesSweep := []int{1, 2, 4, 8, 16, 32, 64}
	overlaps := []float64{0, 0.5, 0.9, 1.0}
	if cfg.Quick {
		sitesSweep = []int{1, 4, 16}
		overlaps = []float64{0, 0.5, 1.0}
	}
	trials := cfg.trials(12)
	perSite := cfg.scale(20_000)

	tbl := NewTable("e3_union_overlap",
		"Signed relative error of union estimates: coordinated merge vs per-site sum",
		"coord_err should stay within ±ε everywhere. uncoord_err is signed: ≈0 when sites are disjoint (overlap 0) and strongly positive as overlap grows — at overlap 1 with t sites it approaches t−1 (every site recounts the same core).",
		"sites", "overlap", "union_truth", "coord_err(signed,median)", "uncoord_err(signed,median)")

	estCfg := core.EstimatorConfig{Capacity: 1024, Copies: 5}
	for _, t := range sitesSweep {
		for _, ov := range overlaps {
			coordErrs := make([]float64, 0, trials)
			uncoordErrs := make([]float64, 0, trials)
			var lastTruth int
			for trial := 0; trial < trials; trial++ {
				seed := estimate.TrialSeed(cfg.Seed+uint64(t*1000)+uint64(ov*100), trial)
				wl := stream.OverlapConfig{
					Sites: t, PerSite: perSite,
					CoreSize: uint64(perSite / 2), PrivateSize: uint64(perSite / 2),
					Overlap: ov, Seed: seed,
				}
				srcs := wl.Build()
				truth := exact.NewDistinct()
				for _, s := range srcs {
					stream.Feed(s, func(it stream.Item) { truth.Process(it.Label) })
				}
				lastTruth = truth.Count()

				c := estCfg
				c.Seed = seed ^ 0xc0de
				coord, err := distsim.Run(distsim.GT(c), srcs, false)
				if err != nil {
					return nil, err
				}
				uncoord, err := distsim.Run(distsim.Uncoordinated{Config: c}, srcs, false)
				if err != nil {
					return nil, err
				}
				coordErrs = append(coordErrs, estimate.SignedRelErr(coord.DistinctEstimate, float64(truth.Count())))
				uncoordErrs = append(uncoordErrs, estimate.SignedRelErr(uncoord.DistinctEstimate, float64(truth.Count())))
			}
			tbl.AddRow(I(t), F(ov, 1), I(lastTruth),
				F(core.Median(coordErrs), 4), F(core.Median(uncoordErrs), 4))
		}
	}
	return []*Table{tbl}, nil
}
