package stream

import (
	"testing"

	"repro/internal/exact"
)

func TestOverlapDisjoint(t *testing.T) {
	cfg := OverlapConfig{
		Sites: 4, PerSite: 2000, CoreSize: 100, PrivateSize: 500,
		Overlap: 0, Seed: 1,
	}
	srcs := cfg.Build()
	perSite := make([]*exact.Distinct, len(srcs))
	union := exact.NewDistinct()
	for i, s := range srcs {
		perSite[i] = exact.NewDistinct()
		Feed(s, func(it Item) {
			perSite[i].Process(it.Label)
			union.Process(it.Label)
		})
	}
	sum := 0
	for _, d := range perSite {
		sum += d.Count()
	}
	if sum != union.Count() {
		t.Errorf("overlap=0: sum of per-site %d != union %d", sum, union.Count())
	}
}

func TestOverlapFull(t *testing.T) {
	cfg := OverlapConfig{
		Sites: 4, PerSite: 5000, CoreSize: 200, PrivateSize: 500,
		Overlap: 1, Seed: 2,
	}
	union := exact.NewDistinct()
	for _, s := range cfg.Build() {
		Feed(s, func(it Item) { union.Process(it.Label) })
	}
	// Everything drawn from the 200-label core (coupon-collected).
	if union.Count() != 200 {
		t.Errorf("overlap=1: union = %d, want 200", union.Count())
	}
}

func TestOverlapPartialDuplication(t *testing.T) {
	cfg := OverlapConfig{
		Sites: 8, PerSite: 4000, CoreSize: 1000, PrivateSize: 1000,
		Overlap: 0.5, Seed: 3,
	}
	perSiteSum := 0
	union := exact.NewDistinct()
	for _, s := range cfg.Build() {
		d := exact.NewDistinct()
		Feed(s, func(it Item) {
			d.Process(it.Label)
			union.Process(it.Label)
		})
		perSiteSum += d.Count()
	}
	if perSiteSum <= union.Count() {
		t.Errorf("expected per-site sum %d to overcount union %d", perSiteSum, union.Count())
	}
}

func TestOverlapDeterministicPerSite(t *testing.T) {
	cfg := OverlapConfig{Sites: 3, PerSite: 100, CoreSize: 10, PrivateSize: 10, Overlap: 0.5, Seed: 7}
	a, b := cfg.Build(), cfg.Build()
	for i := range a {
		ia, ib := Collect(a[i]), Collect(b[i])
		for j := range ia {
			if ia[j] != ib[j] {
				t.Fatalf("site %d differs at %d", i, j)
			}
		}
	}
	// Different sites differ.
	s0, s1 := Collect(a[0]), Collect(a[1])
	same := 0
	for j := range s0 {
		if s0[j] == s1[j] {
			same++
		}
	}
	if same == len(s0) {
		t.Error("two sites produced identical streams")
	}
}

func TestOverlapValidate(t *testing.T) {
	bad := []OverlapConfig{
		{Sites: 0, PerSite: 1, CoreSize: 1, PrivateSize: 1},
		{Sites: 1, PerSite: 0, CoreSize: 1, PrivateSize: 1},
		{Sites: 1, PerSite: 1, CoreSize: 0, PrivateSize: 1},
		{Sites: 1, PerSite: 1, CoreSize: 1, PrivateSize: 0},
		{Sites: 1, PerSite: 1, CoreSize: 1, PrivateSize: 1, Overlap: -0.1},
		{Sites: 1, PerSite: 1, CoreSize: 1, PrivateSize: 1, Overlap: 1.1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			cfg.Build()
		}()
	}
}
