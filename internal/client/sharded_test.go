package client_test

// Tests for the batched push session and the ring-aware sharded
// dialer, run against real in-process coordinators. They live in an
// external test package because they stand up internal/server, which
// itself builds on this client.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"

	_ "repro/internal/sketch/kinds"
)

// startServer runs srv on an ephemeral loopback listener; shutdown is
// wired into test cleanup.
func startServer(t *testing.T, srv *server.Server) string {
	t.Helper()
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

// groupRecords builds n default-stream records in n distinct merge
// groups (one kmv sketch per coordination seed; the seed feeds the
// config digest).
func groupRecords(t *testing.T, n int) []client.Record {
	t.Helper()
	recs := make([]client.Record, n)
	for i := range recs {
		sk := kmv.New(4, uint64(1000+i))
		for x := uint64(0); x < 16; x++ {
			sk.Process(x * uint64(i+1))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		recs[i].Envelope = env
	}
	return recs
}

func batchConfig(addr string) client.Config {
	return client.Config{
		Addr:        addr,
		Attempts:    4,
		BackoffBase: time.Millisecond,
		IOTimeout:   2 * time.Second,
		JitterSeed:  1,
	}
}

// TestPushBatchDeliversAll: one connection, many groups, every
// envelope acked and absorbed.
func TestPushBatchDeliversAll(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	recs := groupRecords(t, 64)

	cl := client.New(batchConfig(addr))
	pushed, err := cl.PushBatchNamed(recs)
	if err != nil || pushed != len(recs) {
		t.Fatalf("PushBatchNamed: pushed=%d err=%v", pushed, err)
	}
	st := srv.Stats()
	if st.SketchesAbsorbed != int64(len(recs)) || len(st.Groups) != len(recs) {
		t.Fatalf("server absorbed %d into %d groups, want %d/%d",
			st.SketchesAbsorbed, len(st.Groups), len(recs), len(recs))
	}
	if st.ConnsAccepted != 1 {
		t.Errorf("batch used %d connections, want 1", st.ConnsAccepted)
	}
}

// TestPushBatchResumesAfterTransientWrite: a failed frame write drops
// the connection; the batch must redial and resume at the failing
// envelope with nothing lost.
func TestPushBatchResumesAfterTransientWrite(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	recs := groupRecords(t, 20)

	injected := errors.New("injected write fault")
	failpoint.Enable(failpoint.ClientWrite, failpoint.Times(1, injected))
	defer failpoint.Disable(failpoint.ClientWrite)

	cl := client.New(batchConfig(addr))
	pushed, err := cl.PushBatchNamed(recs)
	if err != nil || pushed != len(recs) {
		t.Fatalf("PushBatchNamed: pushed=%d err=%v", pushed, err)
	}
	st := srv.Stats()
	if st.SketchesAbsorbed != int64(len(recs)) {
		t.Fatalf("absorbed %d, want %d", st.SketchesAbsorbed, len(recs))
	}
	if st.ConnsAccepted < 2 {
		t.Errorf("expected a reconnect after the injected fault, saw %d conns", st.ConnsAccepted)
	}
}

// TestPushBatchLostAckRedelivers: an ack lost after the server
// absorbed the push forces a redelivery — at-least-once — and the
// duplicate must not change the group state (idempotent merge).
func TestPushBatchLostAckRedelivers(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	recs := groupRecords(t, 8)

	// Control: the same envelopes absorbed once each.
	ctl := server.New(server.Config{})
	ctlAddr := startServer(t, ctl)
	if pushed, err := client.New(batchConfig(ctlAddr)).PushBatchNamed(recs); err != nil || pushed != len(recs) {
		t.Fatalf("control push: %d, %v", pushed, err)
	}

	injected := errors.New("injected read fault")
	failpoint.Enable(failpoint.ClientRead, failpoint.Times(1, injected))
	defer failpoint.Disable(failpoint.ClientRead)

	cl := client.New(batchConfig(addr))
	pushed, err := cl.PushBatchNamed(recs)
	if err != nil || pushed != len(recs) {
		t.Fatalf("PushBatchNamed: pushed=%d err=%v", pushed, err)
	}
	st := srv.Stats()
	if st.SketchesAbsorbed != int64(len(recs))+1 {
		t.Fatalf("absorbed %d, want %d (one duplicate redelivery)", st.SketchesAbsorbed, len(recs)+1)
	}
	// The duplicated delivery must leave every group byte-identical to
	// the duplicate-free control.
	got, err := srv.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctl.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups after duplicate delivery, control has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].GroupKey != want[i].GroupKey || !bytes.Equal(got[i].Envelope, want[i].Envelope) {
			t.Fatalf("group seed %d diverged after duplicate delivery", want[i].Seed)
		}
	}
}

// TestPushBatchPermanentAborts: a typed refusal condemns the batch at
// the offending envelope; earlier envelopes stay delivered.
func TestPushBatchPermanentAborts(t *testing.T) {
	srv := server.New(server.Config{RequireKind: "gt"})
	addr := startServer(t, srv)
	recs := groupRecords(t, 5) // kmv: every push is refused

	cl := client.New(batchConfig(addr))
	pushed, err := cl.PushBatchNamed(recs)
	if !errors.Is(err, client.ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch", err)
	}
	if pushed != 0 {
		t.Fatalf("pushed = %d, want 0", pushed)
	}
}

// TestShardedRoutesByRing: every envelope lands on exactly the shard
// the ring assigns its group to, via PushNamed and PushBatchNamed alike.
func TestShardedRoutesByRing(t *testing.T) {
	const shards = 3
	ring := cluster.NewRing(shards, 0, 77)
	srvs := make([]*server.Server, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		srvs[i] = server.New(server.Config{})
		addrs[i] = startServer(t, srvs[i])
	}
	sc, err := client.NewSharded(ring, addrs, batchConfig(""))
	if err != nil {
		t.Fatal(err)
	}

	recs := groupRecords(t, 120)
	half := len(recs) / 2
	for _, rec := range recs[:half] {
		if _, _, err := sc.PushNamed(rec.Stream, rec.Envelope); err != nil {
			t.Fatal(err)
		}
	}
	if pushed, err := sc.PushBatchNamed(recs[half:]); err != nil || pushed != len(recs)-half {
		t.Fatalf("PushBatchNamed: pushed=%d err=%v", pushed, err)
	}

	var total int64
	for i, srv := range srvs {
		st := srv.Stats()
		total += st.SketchesAbsorbed
		for _, g := range st.Groups {
			key := cluster.GroupKey{Kind: sketch.KindKMV, Digest: mustParseDigest(t, g.Digest)}
			if owner := ring.Owner(key); owner != i {
				t.Errorf("group %s landed on shard %d, ring owner is %d", g.Digest, i, owner)
			}
		}
	}
	if total != int64(len(recs)) {
		t.Fatalf("cluster absorbed %d envelopes, want %d", total, len(recs))
	}
}

func mustParseDigest(t *testing.T, hex string) uint64 {
	t.Helper()
	var d uint64
	for _, c := range []byte(hex) {
		d <<= 4
		switch {
		case c >= '0' && c <= '9':
			d |= uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d |= uint64(c-'a') + 10
		default:
			t.Fatalf("bad digest hex %q", hex)
		}
	}
	return d
}

// TestShardedReportsFailingShard: a permanent refusal from one shard
// surfaces as a *ShardError naming it, while the other shards still
// receive their envelopes.
func TestShardedReportsFailingShard(t *testing.T) {
	const shards = 3
	ring := cluster.NewRing(shards, 0, 77)
	srvs := make([]*server.Server, shards)
	addrs := make([]string, shards)
	const pinned = 1
	for i := range srvs {
		cfg := server.Config{}
		if i == pinned {
			cfg.RequireKind = "gt" // refuses every kmv push permanently
		}
		srvs[i] = server.New(cfg)
		addrs[i] = startServer(t, srvs[i])
	}
	sc, err := client.NewSharded(ring, addrs, batchConfig(""))
	if err != nil {
		t.Fatal(err)
	}

	recs := groupRecords(t, 90)
	pushed, err := sc.PushBatchNamed(recs)
	if !errors.Is(err, client.ErrKindMismatch) {
		t.Fatalf("err = %v, want wrapped ErrKindMismatch", err)
	}
	var se *client.ShardError
	if !errors.As(err, &se) || se.Shard != pinned || se.Addr != addrs[pinned] {
		t.Fatalf("err = %v, want *ShardError for shard %d", err, pinned)
	}
	if srvs[pinned].Stats().SketchesAbsorbed != 0 {
		t.Error("pinned shard absorbed refused envelopes")
	}
	var healthy int64
	for i, srv := range srvs {
		if i != pinned {
			healthy += srv.Stats().SketchesAbsorbed
		}
	}
	if healthy == 0 || int(healthy) != pushed {
		t.Fatalf("healthy shards absorbed %d, reported pushed %d", healthy, pushed)
	}

	// The one-shot PushNamed path wraps the same way.
	var envOnPinned []byte
	for _, rec := range recs {
		if shard, _ := sc.RouteNamed("", rec.Envelope); shard == pinned {
			envOnPinned = rec.Envelope
			break
		}
	}
	if envOnPinned == nil {
		t.Fatal("no envelope routed to the pinned shard")
	}
	if _, _, err := sc.PushNamed("", envOnPinned); !errors.As(err, &se) || se.Shard != pinned {
		t.Fatalf("Push err = %v, want *ShardError for shard %d", err, pinned)
	}
}

// TestShardedConstructionAndRouting: address/shard count mismatches
// and unroutable bytes fail loudly.
func TestShardedConstructionAndRouting(t *testing.T) {
	ring := cluster.NewRing(3, 8, 1)
	if _, err := client.NewSharded(ring, []string{"a", "b"}, client.Config{}); err == nil {
		t.Error("NewSharded accepted 2 addresses for a 3-shard ring")
	}
	sc, err := client.NewSharded(ring, []string{"a", "b", "c"}, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RouteNamed("", []byte("junk")); err == nil {
		t.Error("RouteNamed accepted non-envelope bytes")
	}
	if _, _, err := sc.PushNamed("", []byte("junk")); err == nil {
		t.Error("PushNamed accepted non-envelope bytes")
	}
}
