package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// hostTimedTables time the host, so their values differ run to run;
// every other quick-mode table is a pure function of quickCfg.
var hostTimedTables = map[string]bool{
	"e5_per_item_time":   true,
	"e5_gt_amortization": true,
}

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Seed: 7, Quick: true, Trials: 3, Out: buf}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registered %d experiments, want 11", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s (sort order)", i, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, ok := Get("E3"); !ok {
		t.Error("Get(E3) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Error("Get(E99) succeeded")
	}
}

// TestAllExperimentsRunQuick runs every experiment in quick mode,
// checks each table's shape, and compares every table that does not
// time the host with its CSV golden under testdata/quick. Regenerate
// with: go test ./internal/harness -run TestAllExperimentsRunQuick -update-golden
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow even in quick mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			tables, err := e.Run(quickCfg(&buf))
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if tbl.ID == "" || tbl.Title == "" || len(tbl.Headers) == 0 {
					t.Errorf("table %q incomplete", tbl.ID)
				}
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Errorf("table %q ragged row", tbl.ID)
					}
				}
				if !hostTimedTables[tbl.ID] {
					checkQuickGolden(t, tbl)
				}
			}
		})
	}
}

// checkQuickGolden compares tbl's CSV with its quick-mode golden.
func checkQuickGolden(t *testing.T, tbl *Table) {
	t.Helper()
	var got bytes.Buffer
	if err := tbl.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick", tbl.ID+".csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("table %s drifted from %s (regenerate with -update-golden if intentional)\n--- got\n%s--- want\n%s",
			tbl.ID, path, got.Bytes(), want)
	}
}

func TestRunAndPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow even in quick mode")
	}
	var buf bytes.Buffer
	csvDir := t.TempDir()
	cfg := quickCfg(&buf)
	if err := RunAndPrint(cfg, []string{"E2"}, csvDir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E2") || !strings.Contains(out, "claim:") {
		t.Errorf("output missing experiment header:\n%s", out)
	}
	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Error("no CSV files written")
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(csvDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), ",") {
			t.Errorf("%s: not CSV", f.Name())
		}
	}
}

func TestRunAndPrintUnknown(t *testing.T) {
	if err := RunAndPrint(Config{}, []string{"nope"}, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := NewTable("t", "title", "note", "a", "b")
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "title") {
		t.Error("Fprint missing title")
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged AddRow did not panic")
			}
		}()
		tbl.AddRow("only-one")
	}()
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Error("F")
	}
	if Pct(0.123) != "12.3%" {
		t.Error("Pct")
	}
	if I(42) != "42" {
		t.Error("I")
	}
	if Bytes(512) != "512 B" {
		t.Errorf("Bytes(512) = %s", Bytes(512))
	}
	if Bytes(2048) != "2.0 KiB" {
		t.Errorf("Bytes(2048) = %s", Bytes(2048))
	}
	if !strings.Contains(Bytes(3<<20), "MiB") {
		t.Errorf("Bytes(3MiB) = %s", Bytes(3<<20))
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Quick: true}
	if got := c.trials(20); got != 5 {
		t.Errorf("quick trials = %d, want 5", got)
	}
	if got := (Config{Trials: 7}).trials(20); got != 7 {
		t.Errorf("explicit trials = %d", got)
	}
	if got := c.scale(10_000); got != 1000 {
		t.Errorf("quick scale = %d", got)
	}
	if got := c.scale(500); got != 100 {
		t.Errorf("quick scale floor = %d", got)
	}
	if got := (Config{}).scale(500); got != 500 {
		t.Errorf("full scale = %d", got)
	}
}
