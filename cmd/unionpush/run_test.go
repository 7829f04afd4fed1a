package main

// In-process regression tests for the unionpush CLI: run() against
// real coordinators, checking the exit code contract — in particular
// that a permanently failing shard is reported by index and address
// and turns the exit code non-zero while other work continues.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/unionstream"
)

func startTestServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// writeStreams writes n small stream files with overlapping labels and
// returns their paths.
func writeStreams(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		items := make([]stream.Item, 0, 50)
		for x := uint64(i) * 30; x < uint64(i)*30+50; x++ {
			items = append(items, stream.Item{Label: x, Value: 1})
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("site%d.gts", i))
		if err := stream.WriteFile(paths[i], stream.FromSlice(items)); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// ownerShard computes which shard the default-config gt group lands
// on — the same routing run() performs.
func ownerShard(t *testing.T, shards int, ringSeed uint64) int {
	t.Helper()
	sk, err := unionstream.New(unionstream.Options{Epsilon: 0.05, Delta: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	env, err := sk.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	kind, digest, ok := sketch.PeekHeader(env)
	if !ok {
		t.Fatal("gt envelope failed to peek")
	}
	return cluster.NewRing(shards, 0, ringSeed).Owner(cluster.GroupKey{Kind: kind, Digest: digest})
}

func TestRunSingleCoordinator(t *testing.T) {
	addr := startTestServer(t, server.Config{})
	paths := writeStreams(t, 3)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-addr", addr, "-query"}, paths...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "union distinct estimate") {
		t.Errorf("missing query output:\n%s", stdout.String())
	}
}

// TestRunSingleCoordinatorRefusalNamesAddress: a lone coordinator runs
// as a one-shard ring, but its refusals name it by address alone.
func TestRunSingleCoordinatorRefusalNamesAddress(t *testing.T) {
	addr := startTestServer(t, server.Config{RequireKind: "kmv"})
	paths := writeStreams(t, 1)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-addr", addr}, paths...), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, ": "+addr+" is pinned to another sketch kind") || strings.Contains(msg, "shard") {
		t.Errorf("stderr does not name the coordinator by its address alone:\n%s", msg)
	}
}

func TestRunShardedPushesAndQueries(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = startTestServer(t, server.Config{})
	}
	paths := writeStreams(t, 4)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-shards", strings.Join(addrs, ","), "-ring-seed", "42", "-query"}, paths...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "site "); got != len(paths) {
		t.Errorf("%d site lines, want %d:\n%s", got, len(paths), stdout.String())
	}
	if !strings.Contains(stdout.String(), "union distinct estimate") {
		t.Errorf("missing query output (query must route to the owning shard):\n%s", stdout.String())
	}
}

// TestRunShardedFailingShardExitsNonZero is the satellite regression:
// when the shard owning the pushed group permanently refuses, run()
// must name that shard (index and address) on stderr and exit 1.
func TestRunShardedFailingShardExitsNonZero(t *testing.T) {
	const shards = 3
	owner := ownerShard(t, shards, 42)
	addrs := make([]string, shards)
	for i := range addrs {
		cfg := server.Config{}
		if i == owner {
			cfg.RequireKind = "kmv" // gt pushes are permanently refused
		}
		addrs[i] = startTestServer(t, cfg)
	}
	paths := writeStreams(t, 2)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-shards", strings.Join(addrs, ","), "-ring-seed", "42"}, paths...), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	wantShard := fmt.Sprintf("shard %d (%s)", owner, addrs[owner])
	if !strings.Contains(msg, wantShard) {
		t.Errorf("stderr does not name the failing %s:\n%s", wantShard, msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("%d of %d pushes failed", len(paths), len(paths))) {
		t.Errorf("stderr missing the failure tally:\n%s", msg)
	}
}

// TestRunShardedUnaffectedByOtherShardPinning: pinning a shard that
// does NOT own the group must not fail the run — failures are
// attributed to the shard actually dialed, not the fleet.
func TestRunShardedUnaffectedByOtherShardPinning(t *testing.T) {
	const shards = 3
	owner := ownerShard(t, shards, 42)
	addrs := make([]string, shards)
	for i := range addrs {
		cfg := server.Config{}
		if i != owner {
			cfg.RequireKind = "kmv"
		}
		addrs[i] = startTestServer(t, cfg)
	}
	paths := writeStreams(t, 2)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-shards", strings.Join(addrs, ","), "-ring-seed", "42"}, paths...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
}
