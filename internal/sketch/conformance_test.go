package sketch_test

import (
	"testing"

	"repro/internal/sketch"
	"repro/internal/sketch/sketchtest"

	// Register every kind: the suite must cover the full registry.
	_ "repro/internal/sketch/kinds"
)

// TestConformance holds every registered kind to the mergeable-sketch
// contract. It also pins the expected registry contents: a kind
// vanishing from (or appearing in) the registry is a deliberate act,
// recorded here. The tags are literals, not the sketch.Kind constants,
// because they are wire-stable: renumbering a constant would make old
// envelopes decode as another kind, and must fail here.
func TestConformance(t *testing.T) {
	want := map[string]sketch.Kind{
		"gt":     1,
		"fm":     2,
		"ams":    3,
		"bjkst":  4,
		"kmv":    5,
		"hll":    6,
		"window": 7,
		"exact":  8,
	}
	kinds := sketch.Kinds()
	if len(kinds) != len(want) {
		t.Errorf("registry has %d kinds, want %d", len(kinds), len(want))
	}
	for _, info := range kinds {
		if want[info.Name] != info.Kind {
			t.Errorf("kind %q registered as tag %d, want %d", info.Name, info.Kind, want[info.Name])
		}
		delete(want, info.Name)
		info := info
		t.Run(info.Name, func(t *testing.T) { sketchtest.Conform(t, info) })
	}
	for name := range want {
		t.Errorf("kind %q missing from registry", name)
	}
}
