package distnet

// End-to-end acceptance for the set-expression query engine: three
// named streams pushed over real TCP, nested expressions — (A∪B)∩C,
// A\B, Jaccard — evaluated on a single coordinator, a relay tier, and
// a 3-shard cluster, with every answer required to match a local
// evaluation through internal/core's set operations EXACTLY (float64
// equality, not tolerance: the server evaluates clones of the same
// merged state through the same code paths, so any drift is a bug in
// the stream plumbing). A recovery test closes the loop: a durable
// coordinator holding named-stream records must come back from a
// crash bit-identical and answer the same expressions with the same
// values.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// exprStreams is the named-stream fixture: three overlapping label
// sets, each split across three sites, all sketched under one
// coordinated configuration (same seed — the precondition for any
// cross-stream set operation).
var exprStreams = []struct {
	name     string
	lo, hi   uint64 // label range [lo, hi)
	numSites int
}{
	{"ads", 0, 600, 3},
	{"buys", 300, 900, 3},
	{"clicks", 450, 1050, 3},
}

var exprCfg = core.EstimatorConfig{Capacity: 64, Copies: 5, Seed: 77}

// exprLabel spreads the label space so retention levels vary.
func exprLabel(x uint64) uint64 { return x * 2654435761 }

// exprEnvelopes builds one envelope per (stream, site) pair.
func exprEnvelopes(t testing.TB) []client.Record {
	t.Helper()
	var recs []client.Record
	for _, st := range exprStreams {
		for site := 0; site < st.numSites; site++ {
			est := core.NewEstimator(exprCfg)
			for x := st.lo; x < st.hi; x++ {
				if int(x)%st.numSites == site {
					est.Process(exprLabel(x))
				}
			}
			env, err := sketch.Envelope(est)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, client.Record{Stream: st.name, Envelope: env})
		}
	}
	return recs
}

// exprLocalStreams mirrors what each coordinator group converges to:
// the merge of every site envelope belonging to the stream.
func exprLocalStreams(t testing.TB, recs []client.Record) map[string]sketch.Sketch {
	t.Helper()
	merged := make(map[string]sketch.Sketch)
	for _, rec := range recs {
		sk, err := sketch.Open(rec.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		if cur, ok := merged[rec.Stream]; ok {
			if err := cur.Merge(sk); err != nil {
				t.Fatal(err)
			}
		} else {
			merged[rec.Stream] = sk
		}
	}
	return merged
}

// exprExpected evaluates the three acceptance expressions locally
// through the exact capability paths the server evaluator uses, so
// the network answers must be float64-equal.
type exprExpected struct {
	unionIntersect float64 // ("ads" | "buys") & "clicks"
	diff           float64 // "ads" - "buys"
	jaccard        float64 // "ads" ~ "buys"
}

func exprEvalLocal(t testing.TB, streams map[string]sketch.Sketch) exprExpected {
	t.Helper()
	clone := func(name string) sketch.Sketch {
		env, err := sketch.Envelope(streams[name])
		if err != nil {
			t.Fatal(err)
		}
		sk, err := sketch.Open(env)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	var exp exprExpected

	u := clone("ads")
	if err := u.Merge(clone("buys")); err != nil {
		t.Fatal(err)
	}
	inter, err := u.(sketch.SetCombiner).CombineIntersect(clone("clicks"))
	if err != nil {
		t.Fatal(err)
	}
	exp.unionIntersect = inter.Estimate()

	d, err := clone("ads").(sketch.SetCombiner).CombineDiff(clone("buys"))
	if err != nil {
		t.Fatal(err)
	}
	exp.diff = d.Estimate()

	if exp.jaccard, err = clone("ads").(sketch.SetAlgebra).SetJaccard(clone("buys")); err != nil {
		t.Fatal(err)
	}
	return exp
}

// exprQueries builds the three acceptance queries.
func exprQueries() (unionIntersect, diff, jaccard wire.ExprQuery) {
	unionIntersect = wire.ExprQuery{Expr: wire.Intersect(wire.Union(wire.Leaf("ads"), wire.Leaf("buys")), wire.Leaf("clicks"))}
	diff = wire.ExprQuery{Expr: wire.Diff(wire.Leaf("ads"), wire.Leaf("buys"))}
	jaccard = wire.ExprQuery{Expr: wire.Jaccard(wire.Leaf("ads"), wire.Leaf("buys"))}
	return
}

// checkExprAnswers runs the three queries through ask and requires
// exact agreement with the local evaluation.
func checkExprAnswers(t *testing.T, label string, exp exprExpected, ask func(wire.ExprQuery) (*wire.ExprResult, error)) {
	t.Helper()
	ui, diff, jac := exprQueries()
	cases := []struct {
		name string
		eq   wire.ExprQuery
		want float64
	}{
		{"(ads|buys)&clicks", ui, exp.unionIntersect},
		{"ads-buys", diff, exp.diff},
		{"ads~buys", jac, exp.jaccard},
	}
	for _, tc := range cases {
		res, err := ask(tc.eq)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, tc.name, err)
		}
		if res.Value != tc.want {
			t.Fatalf("%s: %s = %v, local core evaluation says %v", label, tc.name, res.Value, tc.want)
		}
		if res.ErrBound <= 0 {
			t.Fatalf("%s: %s reported non-positive error bound %v", label, tc.name, res.ErrBound)
		}
		if res.Op != tc.eq.Expr.Op {
			t.Fatalf("%s: %s: result tree root op %d, query op %d", label, tc.name, res.Op, tc.eq.Expr.Op)
		}
	}
}

// TestExprSingleCoordinator pushes the named streams at one
// coordinator over TCP and checks the three expressions.
func TestExprSingleCoordinator(t *testing.T) {
	recs := exprEnvelopes(t)
	exp := exprEvalLocal(t, exprLocalStreams(t, recs))

	_, addr := controlServer(t)
	cl := client.New(clientConfig(addr))
	if n, err := cl.PushBatchNamed(recs); err != nil || n != len(recs) {
		t.Fatalf("push: %d/%d acked, err=%v", n, len(recs), err)
	}
	checkExprAnswers(t, "single", exp, cl.QueryExpr)

	// A leaf naming an unknown stream must refuse, not misresolve.
	if _, err := cl.QueryExpr(wire.ExprQuery{Expr: wire.Union(wire.Leaf("ads"), wire.Leaf("nope"))}); err == nil {
		t.Fatal("expression over unknown stream succeeded")
	}
}

// TestExprRelayTier pushes the streams at a relay shard and checks
// the expressions against BOTH the shard and its parent: the relayed
// groups carry their stream names upstream, so the parent answers
// identically.
func TestExprRelayTier(t *testing.T) {
	recs := exprEnvelopes(t)
	exp := exprEvalLocal(t, exprLocalStreams(t, recs))

	c, err := StartCluster(ClusterOptions{
		Shards:      1,
		RingSeed:    7,
		Attempts:    3,
		BackoffBase: time.Millisecond,
		IOTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sc, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sc.PushBatchNamed(recs); err != nil || n != len(recs) {
		t.Fatalf("push: %d/%d acked, err=%v", n, len(recs), err)
	}
	checkExprAnswers(t, "relay shard", exp, sc.Shard(0).QueryExpr)

	deadline := time.Now().Add(10 * time.Second)
	for c.PendingRelay() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("relay never drained (%d pending)", c.PendingRelay())
		}
		if _, err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	parent := client.New(clientConfig(c.ParentAddr))
	checkExprAnswers(t, "relay parent", exp, parent.QueryExpr)
}

// TestExprShardedCluster is the cross-shard leg: with three named
// streams routed across a 3-shard ring, expression leaves generally
// land on different shards, so the sharded client must route the
// query to the parent coordinator — whose relayed groups have
// converged to every stream's full union. The ring seed comes from
// -chaos.seed so ci.sh can sweep stream placements.
func TestExprShardedCluster(t *testing.T) {
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { testExprShardedCluster(t, seed) })
	}
}

func testExprShardedCluster(t *testing.T, ringSeed uint64) {
	recs := exprEnvelopes(t)
	exp := exprEvalLocal(t, exprLocalStreams(t, recs))

	c, err := StartCluster(ClusterOptions{
		Shards:      3,
		RingSeed:    ringSeed,
		Attempts:    3,
		BackoffBase: time.Millisecond,
		IOTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sc, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sc.PushBatchNamed(recs); err != nil || n != len(recs) {
		t.Fatalf("push: %d/%d acked, err=%v", n, len(recs), err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.PendingRelay() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("relay never drained (%d pending)", c.PendingRelay())
		}
		if _, err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}

	kind, digest, ok := sketch.PeekHeader(recs[0].Envelope)
	if !ok {
		t.Fatal("fixture envelope has no header")
	}
	checkExprAnswers(t, "sharded", exp, func(eq wire.ExprQuery) (*wire.ExprResult, error) {
		return sc.QueryExpr(eq, uint8(kind), digest)
	})

	// The parent converged bit-identically to a single coordinator
	// absorbing the same named pushes directly — stream names intact
	// through the relay hop.
	ctrl, ctrlAddr := controlServer(t)
	ctrlClient := client.New(clientConfig(ctrlAddr))
	if _, err := ctrlClient.PushBatchNamed(recs); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, c.Parent, ctrl, "sharded parent vs named control")

	// Without a parent wired in, a spanning query must refuse cleanly
	// rather than answer from one shard's partial view.
	bare, err := client.NewSharded(c.Ring, c.ShardAddrs, clientConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	ui, _, _ := exprQueries()
	spans := false
	owner := c.Ring.Owner(cluster.GroupKey{Stream: "ads", Kind: kind, Digest: digest})
	for _, stream := range []string{"buys", "clicks"} {
		if c.Ring.Owner(cluster.GroupKey{Stream: stream, Kind: kind, Digest: digest}) != owner {
			spans = true
		}
	}
	if spans {
		if _, err := bare.QueryExpr(ui, uint8(kind), digest); !errors.Is(err, client.ErrRejected) {
			t.Fatalf("spanning query without a parent: got %v, want ErrRejected", err)
		}
	}
}

// TestExprWALRecovery is the named-stream leg of the WAL recovery
// matrix: a durable coordinator absorbs the named streams (half
// before a snapshot cut, half after, so both the snapshot and the
// live-tail replay path carry named records), crashes without a
// drain, and the rebooted coordinator must hold bit-identical groups
// and answer the acceptance expressions with bit-identical values.
func TestExprWALRecovery(t *testing.T) {
	recs := exprEnvelopes(t)
	exp := exprEvalLocal(t, exprLocalStreams(t, recs))
	dir := t.TempDir()

	boot := func() (*server.Server, string, chan error) {
		srv := server.New(server.Config{WAL: &server.WALConfig{
			Dir:           dir,
			SegmentBytes:  4096,
			SnapshotEvery: time.Hour,
		}})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		waitRecovered(t, srv, done)
		return srv, ln.Addr().String(), done
	}

	srv, addr, done := boot()
	cl := client.New(clientConfig(addr))
	half := len(recs) / 2
	if _, err := cl.PushBatchNamed(recs[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SnapshotWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushBatchNamed(recs[half:]); err != nil {
		t.Fatal(err)
	}
	pre, err := srv.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	srv.Abort()
	if err := <-done; err != nil {
		t.Fatalf("aborted serve loop: %v", err)
	}

	srv2, addr2, done2 := boot()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-done2; err != nil {
			t.Error(err)
		}
	}()
	post, err := srv2.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != len(pre) {
		t.Fatalf("recovered %d groups, crashed coordinator held %d", len(post), len(pre))
	}
	for i := range post {
		if post[i].Stream != pre[i].Stream || post[i].Kind != pre[i].Kind || post[i].Digest != pre[i].Digest {
			t.Fatalf("group %d recovered as %q/%s/%016x, was %q/%s/%016x",
				i, post[i].Stream, post[i].KindName, post[i].Digest, pre[i].Stream, pre[i].KindName, pre[i].Digest)
		}
		if string(post[i].Envelope) != string(pre[i].Envelope) {
			t.Fatalf("group %q/%s/%016x diverged across recovery", post[i].Stream, post[i].KindName, post[i].Digest)
		}
	}
	checkExprAnswers(t, "recovered", exp, client.New(clientConfig(addr2)).QueryExpr)
}

// waitRecovered blocks until the coordinator finishes WAL recovery
// (or its serve loop dies first).
func waitRecovered(t testing.TB, srv *server.Server, done chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("coordinator exited during recovery: %v", err)
		default:
		}
		if st := srv.Stats(); st.WAL == nil || st.WAL.Recovered {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
