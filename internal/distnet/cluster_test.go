package distnet

// Cluster convergence suite — the tentpole contract of the sharded
// tier: three shards relaying into a parent must leave the parent
// bit-identical to a single coordinator that absorbed every site push
// directly. Fault-free at 10^5 merge groups, and (in
// cluster_chaos_test.go) under seeded faults on every hop.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
)

// clusterRecords builds one default-stream record per merge group for
// a wave: group i is the kmv sketch with coordination seed baseSeed+i,
// and each wave observes an overlapping label range so later waves
// genuinely change (and duplicate) state.
func clusterRecords(t testing.TB, groups, wave int) []client.Record {
	t.Helper()
	recs := make([]client.Record, groups)
	for i := range recs {
		sk := kmv.New(4, uint64(20000+i))
		base := uint64(wave) * 12
		for x := base; x < base+20; x++ {
			sk.Process(x*2654435761 + uint64(i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		recs[i].Envelope = env
	}
	return recs
}

// controlServer starts a plain single coordinator.
func controlServer(t testing.TB) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("control shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("control serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func clientConfig(addr string) client.Config {
	return client.Config{
		Addr:        addr,
		Attempts:    4,
		BackoffBase: time.Millisecond,
		IOTimeout:   5 * time.Second,
		JitterSeed:  1,
	}
}

// pushSharded buckets the records by ring owner and pushes each
// shard's slice concurrently over one batched connection per shard —
// how a real site fleet loads a cluster.
func pushSharded(t testing.TB, sc *client.Sharded, recs []client.Record) {
	t.Helper()
	perShard := map[int][]client.Record{}
	for _, rec := range recs {
		shard, err := sc.RouteNamed(rec.Stream, rec.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		perShard[shard] = append(perShard[shard], rec)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(perShard))
	for i, batch := range perShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sc.Shard(i).PushBatchNamed(batch); err != nil {
				errs <- fmt.Errorf("shard %d batch: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// requireIdentical asserts two coordinators hold bit-identical group
// state: same groups, same merged envelope bytes.
func requireIdentical(t testing.TB, got, want *server.Server, label string) {
	t.Helper()
	gs, err := got.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d groups vs control's %d", label, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Stream != ws[i].Stream || gs[i].Kind != ws[i].Kind || gs[i].Digest != ws[i].Digest {
			t.Fatalf("%s: group %d is %q/%s/%016x, control has %q/%s/%016x",
				label, i, gs[i].Stream, gs[i].KindName, gs[i].Digest, ws[i].Stream, ws[i].KindName, ws[i].Digest)
		}
		if !bytes.Equal(gs[i].Envelope, ws[i].Envelope) {
			t.Fatalf("%s: group %q/%s/%016x diverged from control", label, gs[i].Stream, gs[i].KindName, gs[i].Digest)
		}
	}
}

// TestClusterConvergesBitIdentical is the tentpole: 3 shards serving
// 10^5 merge groups relay into a parent, and the parent's state is
// bit-identical to the single coordinator that absorbed the same site
// pushes directly — including after a second wave that re-dirties and
// re-relays a slice of hot groups (duplicate upstream deliveries).
func TestClusterConvergesBitIdentical(t *testing.T) {
	groups := 100_000
	if testing.Short() {
		groups = 2_000
	}
	ctl, ctlAddr := controlServer(t)
	ctlClient := client.New(clientConfig(ctlAddr))

	c, err := StartCluster(ClusterOptions{
		Shards:      3,
		RingSeed:    42,
		Attempts:    4,
		BackoffBase: time.Millisecond,
		IOTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	sc, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	wave1 := clusterRecords(t, groups, 0)
	pushSharded(t, sc, wave1)
	if _, err := ctlClient.PushBatchNamed(wave1); err != nil {
		t.Fatal(err)
	}
	if n, err := c.FlushAll(); err != nil || n != groups {
		t.Fatalf("wave 1 flush = %d, %v; want %d, nil", n, err, groups)
	}

	// Wave 2 hits the hottest 5% of groups again: those groups evolve
	// on their shards and are re-relayed — the parent merges updated
	// envelopes over state it already holds.
	hot := groups / 20
	wave2 := clusterRecords(t, hot, 1)
	pushSharded(t, sc, wave2)
	if _, err := ctlClient.PushBatchNamed(wave2); err != nil {
		t.Fatal(err)
	}
	if n, err := c.FlushAll(); err != nil || n != hot {
		t.Fatalf("wave 2 flush = %d, %v; want %d, nil", n, err, hot)
	}
	if pending := c.PendingRelay(); pending != 0 {
		t.Fatalf("%d absorbs still pending after flushes", pending)
	}

	requireIdentical(t, c.Parent, ctl, "parent")
	if got := len(c.Parent.Stats().Groups); got != groups {
		t.Fatalf("parent serves %d groups, want %d", got, groups)
	}
	// Every shard's groups really are partitioned by the ring.
	for i, srv := range c.Servers {
		st := srv.Stats()
		if st.Cluster == nil || st.Cluster.GroupsForeign != 0 {
			t.Fatalf("shard %d cluster stats = %+v, want zero foreign groups", i, st.Cluster)
		}
	}
}
