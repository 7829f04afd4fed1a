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
		ID:    "E6",
		Title: "Communication cost: one sketch per site vs exact dedup",
		Claim: "Each party sends a single logarithmic-size message after its stream; exact union computation would ship every distinct label. The gap grows linearly with stream size while the sketch stays fixed.",
		Run:   runE6,
	})
}

func runE6(cfg Config) ([]*Table, error) {
	siteCounts := []int{4, 16, 64}
	if cfg.Quick {
		siteCounts = []int{4, 16}
	}
	perSite := cfg.scale(50_000)
	estCfg := core.EstimatorConfig{Capacity: 1024, Copies: 5, Seed: cfg.Seed}

	tbl := NewTable("e6_communication",
		"Total and per-site bytes sent, with achieved error",
		"gt bytes are flat per site regardless of stream size; exact bytes grow with per-site distinct counts. uncoordinated sends the least (16 B/site) but its error explodes with overlap — the three-way trade the paper resolves.",
		"sites", "protocol", "total_bytes", "max_site_bytes", "rel_err(signed)")

	for _, t := range siteCounts {
		wl := stream.OverlapConfig{
			Sites: t, PerSite: perSite,
			CoreSize: uint64(perSite / 2), PrivateSize: uint64(perSite / 2),
			Overlap: 0.5, Seed: cfg.Seed + uint64(t),
		}
		srcs := wl.Build()
		truth := exact.NewDistinct()
		for _, s := range srcs {
			stream.Feed(s, func(it stream.Item) { truth.Process(it.Label) })
		}
		for _, p := range []distsim.Protocol{
			distsim.GT(estCfg),
			distsim.Exact(),
			distsim.Uncoordinated{Config: estCfg},
		} {
			res, err := distsim.Run(p, srcs, false)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(I(t), p.Name(),
				Bytes(res.Stats.BytesSent),
				Bytes(int64(res.Stats.MaxSiteBytes)),
				F(estimate.SignedRelErr(res.DistinctEstimate, float64(truth.Count())), 4))
		}
	}

	// Second table: sketch size is independent of stream length.
	tbl2 := NewTable("e6_message_vs_streamlen",
		"Per-site message size as the stream grows (8 sites, overlap 0.5)",
		"gt message bytes must plateau once the sample saturates; exact grows linearly in the distinct count.",
		"items_per_site", "gt_site_bytes", "exact_site_bytes")
	for _, ps := range []int{perSite / 10, perSite / 2, perSite, perSite * 2} {
		wl := stream.OverlapConfig{
			Sites: 8, PerSite: ps,
			CoreSize: uint64(ps/2) + 1, PrivateSize: uint64(ps/2) + 1,
			Overlap: 0.5, Seed: cfg.Seed ^ 0x66,
		}
		gtRes, err := distsim.Run(distsim.GT(estCfg), wl.Build(), false)
		if err != nil {
			return nil, err
		}
		exRes, err := distsim.Run(distsim.Exact(), wl.Build(), false)
		if err != nil {
			return nil, err
		}
		tbl2.AddRow(I(ps), Bytes(int64(gtRes.Stats.MaxSiteBytes)), Bytes(int64(exRes.Stats.MaxSiteBytes)))
	}
	return []*Table{tbl, tbl2}, nil
}
