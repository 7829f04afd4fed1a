package server_test

// Golden test for the /statsz surface in durable mode: the wal
// section's geometry, counters, and recovery fields are operator
// contract like the rest of the snapshot — a dashboard watching
// appended_records or truncated_tail_bytes must not find the key
// renamed. The WAL directory is a temp path and is normalized;
// everything else in the fixture is deterministic (fixed envelopes,
// SyncAlways fsync accounting, one explicit snapshot cut).
//
// Regenerate with: go test ./internal/server -run StatszWALGolden -update-golden

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
)

func TestStatszWALGoldenShape(t *testing.T) {
	srv := server.New(server.Config{WAL: &server.WALConfig{
		Dir:           t.TempDir(),
		SnapshotEvery: time.Hour, // parked: the explicit cut below is the only one
	}})
	addr := startServer(t, srv)

	// Deterministic fixture: two kmv groups logged, one snapshot cut,
	// one more append landing in the post-cut tail.
	cl := testClient(addr)
	for i := 0; i < 3; i++ {
		sk := kmv.New(4, uint64(7000+i%2))
		for x := uint64(0); x < 32; x++ {
			sk.Process(x*uint64(3+i) + 1)
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Push(env); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := srv.SnapshotWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}

	rec := httptest.NewRecorder()
	srv.StatszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("statsz status %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("statsz is not JSON: %v", err)
	}
	normalizeStatsz(m)
	if w, ok := m["wal"].(map[string]any); ok {
		w["dir"] = "<dir>" // temp path
	} else {
		t.Fatal("wal section missing from durable-mode /statsz")
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	goldenPath := filepath.Join("testdata", "statsz_wal.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("durable /statsz shape drifted from golden (regenerate with -update-golden if intentional)\n--- got\n%s--- want\n%s", got, want)
	}

	// Every non-omitempty tag on the wal section, the embedded
	// wal.Stats's included, must render.
	rendered := string(got)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(server.WALStats{})) {
		if f.Anonymous {
			continue
		}
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		if strings.Contains(f.Tag.Get("json"), "omitempty") {
			continue
		}
		if !strings.Contains(rendered, `"`+tag+`"`) {
			t.Errorf("field WALStats.%s (json %q) missing from durable /statsz output", f.Name, tag)
		}
	}
}
