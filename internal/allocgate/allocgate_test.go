package allocgate

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis/allocbudget"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"
	_ "repro/internal/sketch/kinds"
	"repro/internal/wal"
)

// Gate-sized configuration: small sketches, a modest distinct-label
// set, warmed before measurement so steady-state growth (amortized
// sites) has already happened.
const (
	gateEps    = 0.5
	gateSeed   = 42
	gateLabels = 64
	gateRuns   = 50
)

var (
	loadOnce sync.Once
	loadSet  *allocbudget.Set
	loadErr  error
)

// budgets harvests the allocflow summaries once per test binary: it
// re-runs the analyzer over the module, so the licensed ceilings are
// always those of the tree under test, never a stale artifact.
func budgets(t *testing.T) *allocbudget.Set {
	t.Helper()
	loadOnce.Do(func() {
		loadSet, loadErr = allocbudget.Load(".",
			"./internal/server", "./internal/wal", "./internal/sketch/...",
			"./internal/core", "./internal/exact", "./internal/window")
	})
	if loadErr != nil {
		t.Fatalf("harvesting allocflow summaries: %v", loadErr)
	}
	return loadSet
}

// mustBeBounded lists the paths whose static boundedness is
// ratcheted: these are bounded today, and a change that reintroduces
// an unlicensed allocation or dynamic call on one of them fails here
// (an unbounded path only logs otherwise, since the numeric gate has
// nothing to compare against).
var mustBeBounded = map[string]bool{
	"gt/process": true, "exact/process": true, "ams/process": true,
	"bjkst/process": true, "fm/process": true, "kmv/process": true,
	"hll/process": true, "window/process": true,
	"gt/merge": true, "exact/merge": true, "ams/merge": true,
	"bjkst/merge": true, "fm/merge": true, "kmv/merge": true, "hll/merge": true,
	"gt/decode": true, "exact/decode": true, "ams/decode": true,
	"bjkst/decode": true, "fm/decode": true, "kmv/decode": true,
	"hll/decode": true, "window/decode": true,
	"gt/absorb": true, "exact/absorb": true, "ams/absorb": true,
	"bjkst/absorb": true, "fm/absorb": true, "kmv/absorb": true,
	"hll/absorb": true,
	// window/merge and window/absorb stay unbounded by design:
	// window.mergeLevel rebuilds per-level samples on every merge.
	"wal/append": true,
}

// gate compares one observed AllocsPerRun figure against the path's
// licensed ceiling. Unbounded paths are logged (and ratchet-checked);
// bounded paths fail when the runtime out-allocates the license.
func gate(t *testing.T, set *allocbudget.Set, name string, p allocbudget.Path, perRun int, f func()) {
	t.Helper()
	res := set.Eval(p)
	if !res.Bounded {
		t.Logf("%s: statically unbounded (no numeric gate): %v", name, res.Blockers)
		if mustBeBounded[name] {
			t.Errorf("%s: must stay statically bounded, blockers: %v", name, res.Blockers)
		}
		return
	}
	budget := float64(res.Ceiling * perRun)
	observed := testing.AllocsPerRun(gateRuns, f)
	t.Logf("%s: observed %.1f allocs/run, licensed %d (ceiling %d × %d ops)",
		name, observed, res.Ceiling*perRun, res.Ceiling, perRun)
	if observed > budget {
		t.Errorf("%s: observed %.1f allocs/run exceeds the licensed ceiling %d — either the summaries under-count (fix allocflow) or the path grew an allocation (hoist or annotate it)",
			name, observed, res.Ceiling*perRun)
	}
}

// newWarm builds a sketch of the kind and feeds it the gate label
// set, so capacity growth is behind it.
func newWarm(t *testing.T, info sketch.KindInfo) sketch.Sketch {
	t.Helper()
	s := info.New(gateEps, gateSeed)
	for l := uint64(0); l < gateLabels; l++ {
		s.Process(l)
	}
	return s
}

// TestHotPathAllocSummaries is the runtime cross-check of the
// allocflow analyzer: for every registered kind it drives the
// Process, Merge, envelope-decode, coordinator-absorb, and WAL-append
// paths under testing.AllocsPerRun and fails if observed allocations
// exceed the malloc ceiling the kind's summaries license.
func TestHotPathAllocSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("harvesting summaries re-analyzes the module; skipped in -short")
	}
	set := budgets(t)

	for _, kind := range allocbudget.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			info, ok := sketch.LookupName(kind)
			if !ok {
				t.Fatalf("kind %q not registered", kind)
			}

			t.Run("process", func(t *testing.T) {
				p, _ := allocbudget.ProcessPath(kind)
				s := newWarm(t, info)
				gate(t, set, kind+"/process", p, gateLabels, func() {
					for l := uint64(0); l < gateLabels; l++ {
						s.Process(l)
					}
				})
			})

			t.Run("merge", func(t *testing.T) {
				p, _ := allocbudget.MergePath(kind)
				a, b := newWarm(t, info), newWarm(t, info)
				if err := a.Merge(b); err != nil { // warm: reach merge steady state
					t.Fatalf("warm merge: %v", err)
				}
				gate(t, set, kind+"/merge", p, 1, func() {
					if err := a.Merge(b); err != nil {
						t.Fatalf("merge: %v", err)
					}
				})
			})

			t.Run("decode", func(t *testing.T) {
				p, _ := allocbudget.DecodePath(kind)
				env, err := sketch.Envelope(newWarm(t, info))
				if err != nil {
					t.Fatalf("envelope: %v", err)
				}
				gate(t, set, kind+"/decode", p, 1, func() {
					if _, err := sketch.Open(env); err != nil {
						t.Fatalf("open: %v", err)
					}
				})
			})

			t.Run("absorb", func(t *testing.T) {
				p, _ := allocbudget.AbsorbPath(kind)
				env, err := sketch.Envelope(newWarm(t, info))
				if err != nil {
					t.Fatalf("envelope: %v", err)
				}
				srv := server.New(server.Config{Workers: 1})
				if err := srv.Absorb(env); err != nil { // warm: create the group
					t.Fatalf("warm absorb: %v", err)
				}
				gate(t, set, kind+"/absorb", p, 1, func() {
					if err := srv.Absorb(env); err != nil {
						t.Fatalf("absorb: %v", err)
					}
				})
			})
		})
	}

	t.Run("wal/append", func(t *testing.T) {
		info, _ := sketch.LookupName("gt")
		env, err := sketch.Envelope(newWarm(t, info))
		if err != nil {
			t.Fatalf("envelope: %v", err)
		}
		// A huge segment keeps rotation (cold-annotated) out of the
		// measured runs; SyncNever keeps fsync policy out of them too.
		l, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 1 << 40})
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		defer l.Close()
		if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
			t.Fatalf("wal replay: %v", err)
		}
		if err := l.AppendNamed("s", env); err != nil { // warm
			t.Fatalf("warm append: %v", err)
		}
		gate(t, set, "wal/append", allocbudget.WALAppendPath(), 1, func() {
			if err := l.AppendNamed("s", env); err != nil {
				t.Fatalf("append: %v", err)
			}
		})
	})
}

// The production gt configuration: the registry's ε = 0.1 (capacity
// 1200, 11 copies) after 4096 distinct labels, the envelope size the
// pipeline benchmark pushes.
const (
	prodEps    = 0.1
	prodLabels = 4096
	// prodOpenAllocs bounds one gt envelope Open: the estimator, its
	// copies and one slab for every copy's table.
	prodOpenAllocs = 4
	// prodAbsorbAllocs bounds one steady-state Server.Absorb: the Open
	// plus the coordinator's own bookkeeping; the merge allocates
	// nothing once the group's tables are sized.
	prodAbsorbAllocs = 9
)

// TestGTProductionConfigAllocs pins absolute allocation counts on the
// gt decode and absorb paths at the production configuration, where
// the static ceilings above (sized for gate-sized sketches) say
// nothing: decoding rebuilds the sample, so its cost must not grow
// with the number of copies or entries.
func TestGTProductionConfigAllocs(t *testing.T) {
	info, ok := sketch.LookupName("gt")
	if !ok {
		t.Fatal("gt kind not registered")
	}
	s := info.New(prodEps, gateSeed)
	r := hashing.NewXoshiro256(gateSeed)
	for i := 0; i < prodLabels; i++ {
		s.Process(r.Uint64n(1 << 20))
	}
	env, err := sketch.Envelope(s)
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}

	open := testing.AllocsPerRun(gateRuns, func() {
		if _, err := sketch.Open(env); err != nil {
			t.Fatalf("open: %v", err)
		}
	})
	t.Logf("gt/open at eps=%v: %.1f allocs/op (bound %d)", prodEps, open, prodOpenAllocs)
	if open > prodOpenAllocs {
		t.Errorf("gt envelope Open: %.1f allocs/op, want ≤ %d", open, prodOpenAllocs)
	}

	srv := server.New(server.Config{Workers: 1})
	if err := srv.Absorb(env); err != nil { // warm: create the group
		t.Fatalf("warm absorb: %v", err)
	}
	absorb := testing.AllocsPerRun(gateRuns, func() {
		if err := srv.Absorb(env); err != nil {
			t.Fatalf("absorb: %v", err)
		}
	})
	t.Logf("gt/absorb at eps=%v: %.1f allocs/op (bound %d)", prodEps, absorb, prodAbsorbAllocs)
	if absorb > prodAbsorbAllocs {
		t.Errorf("gt Server.Absorb: %.1f allocs/op, want ≤ %d", absorb, prodAbsorbAllocs)
	}
}

// Registry ε = 0.1 opens of the register and bottom-k kinds. An opened
// sketch holds only what its envelope encodes: an hll or fm open pays
// for its registers or bitmaps (not the two 16 KiB tabulation tables
// the first Process builds), and a kmv open for the sketch and one
// slice of values.
const (
	// prodRegisterOpenBytes bounds the heap bytes of one hll or fm
	// envelope Open.
	prodRegisterOpenBytes = 1 << 10
	// prodKMVOpenAllocs bounds one kmv envelope Open.
	prodKMVOpenAllocs = 2
)

// openCost returns the mean mallocs and heap bytes of one sketch.Open
// of env, measured the way testing.AllocsPerRun counts mallocs.
func openCost(t *testing.T, env []byte) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	open := func() {
		if _, err := sketch.Open(env); err != nil {
			t.Fatalf("open: %v", err)
		}
	}
	open() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gateRuns; i++ {
		open()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / gateRuns, float64(after.TotalAlloc-before.TotalAlloc) / gateRuns
}

// TestProductionConfigOpenCost ratchets the per-envelope cost of
// opening hll, fm and kmv sketches at the registry's ε = 0.1, the
// cost a shard pays on every push and its parent on every relayed
// envelope.
func TestProductionConfigOpenCost(t *testing.T) {
	for _, kind := range []string{"hll", "fm", "kmv"} {
		info, ok := sketch.LookupName(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		s := info.New(prodEps, gateSeed)
		r := hashing.NewXoshiro256(gateSeed)
		for i := 0; i < prodLabels; i++ {
			s.Process(r.Uint64n(1 << 20))
		}
		env, err := sketch.Envelope(s)
		if err != nil {
			t.Fatalf("%s envelope: %v", kind, err)
		}
		allocs, bytes := openCost(t, env)
		t.Logf("%s/open at eps=%v: %.1f allocs, %.0f B per op", kind, prodEps, allocs, bytes)
		switch kind {
		case "kmv":
			if allocs > prodKMVOpenAllocs {
				t.Errorf("kmv envelope Open: %.1f allocs/op, want ≤ %d", allocs, prodKMVOpenAllocs)
			}
		default:
			if bytes >= prodRegisterOpenBytes {
				t.Errorf("%s envelope Open: %.0f B/op, want under %d", kind, bytes, prodRegisterOpenBytes)
			}
		}
	}
}
