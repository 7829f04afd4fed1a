package stream

import (
	"fmt"

	"repro/internal/hashing"
)

// OverlapConfig describes a t-site union workload with controlled
// cross-site duplication — the workload family for experiment E3. Each
// site emits PerSite items; with probability Overlap an item's label is
// drawn from a core universe shared by all sites, otherwise from the
// site's private universe. Overlap = 0 makes the sites disjoint;
// Overlap = 1 makes every site draw from the same universe, so the
// union is no larger than one site's distinct set.
//
// This is the synthetic stand-in for the paper's motivating scenario:
// t network monitors that each see partially overlapping traffic (the
// same flows traverse multiple links), where summing per-link distinct
// counts overcounts and only a union-aware estimator is correct.
type OverlapConfig struct {
	Sites       int     // number of sites (t ≥ 1)
	PerSite     int     // items per site stream
	CoreSize    uint64  // size of the shared label universe
	PrivateSize uint64  // size of each site's private universe
	Overlap     float64 // probability an item is drawn from the core
	Seed        uint64
}

// validate panics on nonsense parameters (programming errors).
func (c OverlapConfig) validate() {
	if c.Sites < 1 || c.PerSite < 1 || c.CoreSize < 1 || c.PrivateSize < 1 ||
		c.Overlap < 0 || c.Overlap > 1 {
		panic(fmt.Sprintf("stream: invalid OverlapConfig %+v", c))
	}
}

// privateBase returns the first label of site i's private region.
// Private regions start above the core and do not overlap each other.
func (c OverlapConfig) privateBase(site int) uint64 {
	return c.CoreSize + uint64(site)*c.PrivateSize
}

// Build returns one Source per site.
func (c OverlapConfig) Build() []Source {
	c.validate()
	srcs := make([]Source, c.Sites)
	for i := range srcs {
		srcs[i] = &overlapSource{cfg: c, site: i}
		srcs[i].Reset()
	}
	return srcs
}

// overlapSource is the per-site generator.
type overlapSource struct {
	cfg     OverlapConfig
	site    int
	rng     *hashing.Xoshiro256
	emitted int
}

// Next implements Source.
func (o *overlapSource) Next() (Item, bool) {
	if o.emitted >= o.cfg.PerSite {
		return Item{}, false
	}
	o.emitted++
	var label uint64
	if o.rng.Float64() < o.cfg.Overlap {
		label = o.rng.Uint64n(o.cfg.CoreSize)
	} else {
		label = o.cfg.privateBase(o.site) + o.rng.Uint64n(o.cfg.PrivateSize)
	}
	return Item{Label: label, Value: 1}, true
}

// Reset implements Source.
func (o *overlapSource) Reset() {
	// Decorrelate sites while keeping everything a function of Seed.
	o.rng = hashing.NewXoshiro256(hashing.Mix64(o.cfg.Seed + uint64(o.site)*0x9e3779b97f4a7c15))
	o.emitted = 0
}
