package distnet

// Cluster convergence suite — the tentpole contract of the sharded
// tier: three shards relaying into a parent must leave the parent
// bit-identical to a single coordinator that absorbed every site push
// directly. Fault-free at 10^5 merge groups, across shard death with
// ring migration, and (in cluster_chaos_test.go) under seeded faults
// on every hop.

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
)

// clusterEnvelopes builds one envelope per merge group for a wave:
// group i is the kmv sketch with coordination seed baseSeed+i, and
// each wave observes an overlapping label range so later waves
// genuinely change (and duplicate) state.
func clusterEnvelopes(t testing.TB, groups, wave int) [][]byte {
	t.Helper()
	envs := make([][]byte, groups)
	for i := range envs {
		sk := kmv.New(4, uint64(20000+i))
		base := uint64(wave) * 12
		for x := base; x < base+20; x++ {
			sk.Process(x*2654435761 + uint64(i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	return envs
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

// pushSharded buckets the envelopes by ring owner and pushes each
// shard's slice concurrently over one batched connection per shard —
// how a real site fleet loads a cluster.
func pushSharded(t testing.TB, sc *client.Sharded, envs [][]byte) {
	t.Helper()
	perShard := make([][][]byte, sc.Shards())
	for _, env := range envs {
		shard, err := sc.Route(env)
		if err != nil {
			t.Fatal(err)
		}
		perShard[shard] = append(perShard[shard], env)
	}
	var wg sync.WaitGroup
	errs := make([]error, sc.Shards())
	for i, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, batch [][]byte) {
			defer wg.Done()
			_, errs[i] = sc.Shard(i).PushBatch(batch)
		}(i, batch)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d batch: %v", i, err)
		}
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

	wave1 := clusterEnvelopes(t, groups, 0)
	pushSharded(t, sc, wave1)
	if _, err := ctlClient.PushBatch(wave1); err != nil {
		t.Fatal(err)
	}
	if n, err := c.FlushAll(); err != nil || n != groups {
		t.Fatalf("wave 1 flush = %d, %v; want %d, nil", n, err, groups)
	}

	// Wave 2 hits the hottest 5% of groups again: those groups evolve
	// on their shards and are re-relayed — the parent merges updated
	// envelopes over state it already holds.
	hot := groups / 20
	wave2 := clusterEnvelopes(t, hot, 1)
	pushSharded(t, sc, wave2)
	if _, err := ctlClient.PushBatch(wave2); err != nil {
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

// TestClusterShardDeathMigrationConverges: a shard dies (drain-
// flushing upstream), the ring drops it, its groups migrate to their
// new owners, and a second wave lands on the survivors — the parent
// still converges bit-identically to the direct control. Shard death
// costs availability of one arc of the ring, never correctness.
func TestClusterShardDeathMigrationConverges(t *testing.T) {
	const groups = 120
	const dead = 1
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

	wave1 := clusterEnvelopes(t, groups, 0)
	pushSharded(t, sc, wave1)
	if _, err := ctlClient.PushBatch(wave1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Shard 1 dies cleanly: Shutdown's drain flush has already pushed
	// its state upstream, but the group state it held must also move to
	// the survivors so future waves keep accumulating somewhere live.
	deadSnaps, err := c.Servers[dead].Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StopShard(dead); err != nil {
		t.Fatalf("stopping shard %d: %v", dead, err)
	}
	next := c.Ring.Without(dead)

	migrating := make([]cluster.Group, len(deadSnaps))
	for i, snap := range deadSnaps {
		migrating[i] = cluster.Group{
			Key:      snap.GroupKey,
			Envelope: snap.Envelope,
		}
	}
	moved, err := cluster.Migrate(migrating, c.Ring, next, func(shard int, envelope []byte) error {
		_, perr := client.New(clientConfig(c.ShardAddrs[shard])).Push(envelope)
		return perr
	})
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	if moved != len(deadSnaps) {
		t.Fatalf("migrated %d of the dead shard's %d groups", moved, len(deadSnaps))
	}

	// Wave 2 routes over the shrunken ring: the dead shard's arcs now
	// belong to the survivors, which hold the migrated state.
	sc2, err := client.NewSharded(next, c.ShardAddrs, clientConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	wave2 := clusterEnvelopes(t, groups, 1)
	pushSharded(t, sc2, wave2)
	if _, err := ctlClient.PushBatch(wave2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if pending := c.PendingRelay(); pending != 0 {
		t.Fatalf("%d absorbs still pending after flushes", pending)
	}

	// The parent saw wave-1 state twice for migrated groups (drain
	// flush, then the survivor's re-relay) — pure duplicates under the
	// idempotent merge.
	requireIdentical(t, c.Parent, ctl, "parent after shard death")
}
