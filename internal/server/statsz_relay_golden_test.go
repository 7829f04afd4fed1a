package server_test

// Golden test for the /statsz surface in relay+cluster mode: the
// relay and cluster sections, the per-group relay counters, and the
// ring-ownership annotations are operator-facing contract just like
// the base snapshot. The upstream address is an ephemeral port and is
// normalized; everything else in the fixture is deterministic.
//
// Regenerate with: go test ./internal/server -run StatszRelayGolden -update-golden

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

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
)

func TestStatszRelayGoldenShape(t *testing.T) {
	parent := server.New(server.Config{})
	parentAddr := startServer(t, parent)

	child := server.New(server.Config{
		Relay: &server.RelayConfig{
			Upstream:      parentAddr,
			FlushInterval: time.Hour, // parked: the explicit flush below is the only one
			Attempts:      4,
			BackoffBase:   time.Millisecond,
			JitterSeed:    1,
		},
		Cluster: &server.ClusterInfo{Shard: 0, Ring: cluster.NewRing(3, 0, 42)},
	})
	childAddr := startServer(t, child)

	// Deterministic fixture: three kmv groups absorbed, one flush. Two
	// of the seeds are chosen so the fixture shows both an owned and a
	// foreign group under ring seed 42.
	cl := testClient(childAddr)
	for i := 0; i < 3; i++ {
		sk := kmv.New(4, uint64(7000+i))
		for x := uint64(0); x < 32; x++ {
			sk.Process(x * uint64(3+i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Push(env); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := child.FlushRelay(); err != nil || n != 3 {
		t.Fatalf("FlushRelay = %d, %v; want 3, nil", n, err)
	}

	rec := httptest.NewRecorder()
	child.StatszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("statsz status %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("statsz is not JSON: %v", err)
	}
	normalizeStatsz(m)
	if relay, ok := m["relay"].(map[string]any); ok {
		relay["upstream"] = "<addr>" // ephemeral loopback port
	} else {
		t.Fatal("relay section missing from relay-mode /statsz")
	}
	if _, ok := m["cluster"].(map[string]any); !ok {
		t.Fatal("cluster section missing from cluster-aware /statsz")
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	goldenPath := filepath.Join("testdata", "statsz_relay.golden")
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
		t.Errorf("relay /statsz shape drifted from golden (regenerate with -update-golden if intentional)\n--- got\n%s--- want\n%s", got, want)
	}

	// Every non-omitempty tag on the relay/cluster sections must render,
	// and the relay-mode group annotations must appear somewhere in the
	// fixture (they are omitempty, so the base golden never shows them).
	rendered := string(got)
	for _, typ := range []reflect.Type{reflect.TypeOf(server.RelayStats{}), reflect.TypeOf(server.ClusterStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]
			if tag == "" || tag == "-" {
				continue
			}
			if strings.Contains(typ.Field(i).Tag.Get("json"), "omitempty") {
				continue
			}
			if !strings.Contains(rendered, `"`+tag+`"`) {
				t.Errorf("field %s.%s (json %q) missing from relay /statsz output", typ.Name(), typ.Field(i).Name, tag)
			}
		}
	}
	for _, tag := range []string{"relay_pushes", "owner_shard", "owned"} {
		if !strings.Contains(rendered, `"`+tag+`"`) {
			t.Errorf("relay-mode group annotation %q missing from /statsz output", tag)
		}
	}
}
