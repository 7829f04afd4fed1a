package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// shortRun is a configuration small enough to run every workload in a
// test: a 300 ms window, one set-up, a 40-record ledger.
func shortRun() runConfig {
	return runConfig{
		seed:          7,
		warmup:        100 * time.Millisecond,
		window:        300 * time.Millisecond,
		setupReps:     1,
		ledgerRecords: 40,
	}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// lastLine parses the JSON result line a run prints last.
func lastLine(t *testing.T, out string) (line struct {
	Correct   bool `json:"correct"`
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not the JSON result: %v\n%s", err, out)
	}
	return line
}

// TestOutputMatchesBenchmarkJSON runs every workload untraced and traced
// and checks that what the program emits is exactly what BENCHMARK.json
// declares: the workload names, and each metric's name and unit, with a
// finite value.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := shortRun()
			cfg.trace = trace
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			line := lastLine(t, out.String())
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%v)",
					w.name, trace, line.Correct, line.Attempted, line.Failed, res.wrong)
			}
			var got []string
			for name, m := range line.Metrics {
				got = append(got, name)
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json declares %q", w.name, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, name, m.Value)
				}
			}
			if len(got) != len(want[trace]) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: emitted %d metrics %v, BENCHMARK.json declares %d",
					w.name, trace, len(got), got, len(want[trace]))
			}
		}
	}
}

// TestCorruptOracleFailsTheRun proves the oracle check bites: with one
// byte of the oracle's first group flipped, every workload must report a
// mismatch naming that group, and a wrong expression answer must fail
// expr-mix on its own.
func TestCorruptOracleFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		cfg := shortRun()
		cfg.tamper = func(o *oracle) {
			env := o.snaps[0].Envelope
			env[len(env)-1] ^= 1
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.wrong == nil || !strings.Contains(res.wrong.Error(), "differs from the oracle") {
			t.Errorf("%s: corrupted oracle snapshot not caught: %v", w.name, res.wrong)
		}
		var out bytes.Buffer
		if err := res.print(&out, false); err != nil {
			t.Fatal(err)
		}
		if lastLine(t, out.String()).Correct {
			t.Errorf("%s: result line says correct with a corrupted oracle", w.name)
		}
	}

	w, err := lookupWorkload("expr-mix")
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortRun()
	cfg.tamper = func(o *oracle) { o.answer.Left.Value = math.Nextafter(o.answer.Left.Value, math.Inf(1)) }
	res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.wrong == nil || !strings.Contains(res.wrong.Error(), "expression node") {
		t.Errorf("expr-mix: corrupted oracle answer not caught: %v", res.wrong)
	}
}

// TestReferenceDescribesWorkloads keeps reference.json's record of each
// workload's shape equal to what the code runs.
func TestReferenceDescribesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Workloads map[string]struct {
			Loop          string         `json:"loop"`
			Clients       int            `json:"clients"`
			Batch         int            `json:"batch"`
			WarmupS       float64        `json:"warmup_s"`
			DurationS     float64        `json:"duration_s"`
			Kinds         map[string]int `json:"kinds"`
			Streams       int            `json:"streams"`
			SitesPerGroup int            `json:"sites_per_group"`
			ItemsPerSite  int            `json:"items_per_site"`
			Query         string         `json:"query"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	var bench struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	raw, err = os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(ref.Workloads) != len(workloads) {
		t.Errorf("reference.json describes %d workloads, the program runs %d", len(ref.Workloads), len(workloads))
	}
	for _, w := range workloads {
		got, ok := ref.Workloads[w.name]
		if !ok {
			t.Errorf("reference.json does not describe %s", w.name)
			continue
		}
		kinds := map[string]int{}
		for _, k := range w.kinds {
			kinds[k] = w.groups
		}
		query := ""
		if w.streams > 0 {
			kinds = map[string]int{"gt": w.streams}
			query = exprQuery.Expr.String()
		}
		if got.Loop != "closed" || got.Clients != clients || got.Batch != w.batch ||
			got.WarmupS != defaultWarmup.Seconds() || got.DurationS != bench.RunSeconds ||
			got.Streams != w.streams || got.SitesPerGroup != w.sites || got.ItemsPerSite != w.items ||
			got.Query != query || len(got.Kinds) != len(kinds) {
			t.Errorf("reference.json describes %s as %+v", w.name, got)
		}
		for k, n := range kinds {
			if got.Kinds[k] != n {
				t.Errorf("reference.json gives %s %d %s groups, the program %d", w.name, got.Kinds[k], k, n)
			}
		}
	}
}

// TestInputsDeriveFromSeed checks the same seed gives the same pool and
// another seed a different one.
func TestInputsDeriveFromSeed(t *testing.T) {
	w, err := lookupWorkload("expr-mix")
	if err != nil {
		t.Fatal(err)
	}
	a, _, _, err := w.fixture(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := w.fixture(1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _, err := w.fixture(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Stream != b[i].Stream || !bytes.Equal(a[i].Envelope, b[i].Envelope) {
			t.Fatalf("seed 1 built two different pools (record %d)", i)
		}
	}
	if bytes.Equal(a[0].Envelope, c[0].Envelope) {
		t.Fatal("seeds 1 and 2 built the same first envelope")
	}
}
