package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/stream"
	"repro/internal/wire"

	// Register every sketch kind for the cross-kind tests.
	_ "repro/internal/sketch/kinds"
)

// startServer runs srv on an ephemeral loopback listener and returns
// its address plus a shutdown func the test must call.
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

func testClient(addr string) *client.Client {
	return client.New(client.Config{
		Addr:        addr,
		Attempts:    3,
		BackoffBase: 5 * time.Millisecond,
		JitterSeed:  1,
	})
}

func overlapSources(t int, seed uint64) []stream.Source {
	return stream.OverlapConfig{
		Sites: t, PerSite: 5000, CoreSize: 2000, PrivateSize: 2000,
		Overlap: 0.5, Seed: seed,
	}.Build()
}

// siteMessages builds the per-site sketch messages the paper's parties
// would send: one coordinated estimator per source, enveloped.
func siteMessages(t *testing.T, cfg core.EstimatorConfig, srcs []stream.Source) [][]byte {
	t.Helper()
	msgs := make([][]byte, len(srcs))
	for i, src := range srcs {
		est := core.NewEstimator(cfg)
		stream.Feed(src, func(it stream.Item) { est.ProcessWeighted(it.Label, it.Value) })
		msg, err := sketch.Envelope(est)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = msg
	}
	return msgs
}

// TestLoopbackMatchesDistsim is the end-to-end acceptance test: t=8
// sites pushing their sketches over real TCP sockets from concurrent
// goroutines must produce exactly the estimates the in-process
// simulator computes on the same seeded streams, and the daemon's
// introspection counters must account every sketch and byte.
func TestLoopbackMatchesDistsim(t *testing.T) {
	srcs := overlapSources(8, 1)
	cfg := core.EstimatorConfig{Capacity: 512, Copies: 5, Seed: 77}

	want, err := distsim.Run(distsim.GT(cfg), srcs, true)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	msgs := siteMessages(t, cfg, srcs)

	var wg sync.WaitGroup
	errs := make([]error, len(msgs))
	for i, msg := range msgs {
		wg.Add(1)
		go func(i int, msg []byte) {
			defer wg.Done()
			_, errs[i] = testClient(addr).Push(msg)
		}(i, msg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d push: %v", i, err)
		}
	}

	cl := testClient(addr)
	distinct, err := cl.DistinctCount(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := cl.SumDistinct(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if distinct != want.DistinctEstimate {
		t.Errorf("network distinct %.4f != in-process %.4f", distinct, want.DistinctEstimate)
	}
	if sum != want.SumEstimate {
		t.Errorf("network sum %.4f != in-process %.4f", sum, want.SumEstimate)
	}

	// Introspection over the wire: absorbed-sketch and byte counters
	// must match the simulator's byte accounting exactly.
	var st server.Stats
	if err := cl.Stats(&st); err != nil {
		t.Fatal(err)
	}
	if st.SketchesAbsorbed != int64(len(srcs)) {
		t.Errorf("absorbed %d sketches, want %d", st.SketchesAbsorbed, len(srcs))
	}
	if st.SketchBytes != want.Stats.BytesSent {
		t.Errorf("sketch bytes %d != simulator bytes %d", st.SketchBytes, want.Stats.BytesSent)
	}
	if len(st.Groups) != 1 {
		t.Fatalf("%d groups, want 1", len(st.Groups))
	}
	g := st.Groups[0]
	if g.Kind != "gt" || g.Seed != cfg.Seed || g.Digest == "" {
		t.Errorf("group identity %+v", g)
	}
	if g.SketchesAbsorbed != int64(len(srcs)) || g.SketchBytes != want.Stats.BytesSent {
		t.Errorf("group accounting %+v", g)
	}
	// Params carries the kind's self-description (JSON numbers decode
	// as float64).
	if g.Params["capacity"] != float64(cfg.Capacity) || g.Params["copies"] != float64(cfg.Copies) {
		t.Errorf("group params %+v", g.Params)
	}
	eps, _ := g.Params["epsilon"].(float64)
	delta, _ := g.Params["delta"].(float64)
	if eps <= 0 || eps > 1 || delta <= 0 || delta >= 1 {
		t.Errorf("group (ε,δ) = (%v, %v)", eps, delta)
	}
	if g.DistinctEstimate != distinct {
		t.Errorf("group estimate %.4f != query %.4f", g.DistinctEstimate, distinct)
	}
	if st.FramesRead == 0 || st.BytesRead <= st.SketchBytes {
		t.Errorf("frame accounting: frames=%d bytes=%d", st.FramesRead, st.BytesRead)
	}
}

// TestConcurrentAbsorbBitIdentical asserts the merge-group guard: N
// goroutines absorbing the same messages in random order must leave a
// group bit-identical to a serial in-order merge.
func TestConcurrentAbsorbBitIdentical(t *testing.T) {
	cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 5}
	srcs := overlapSources(16, 9)
	msgs := siteMessages(t, cfg, srcs)

	// Serial reference: open and merge in site order.
	refBytes, err := serialMerge(msgs)
	if err != nil {
		t.Fatal(err)
	}

	rng := hashing.NewXoshiro256(11)
	for trial := 0; trial < 3; trial++ {
		srv := server.New(server.Config{})
		addr := startServer(t, srv)
		order := make([]int, len(msgs))
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		var wg sync.WaitGroup
		for _, idx := range order {
			wg.Add(1)
			go func(msg []byte) {
				defer wg.Done()
				if _, err := testClient(addr).Push(msg); err != nil {
					t.Error(err)
				}
			}(msgs[idx])
		}
		wg.Wait()
		got := onlyGroup(t, srv)
		if string(got) != string(refBytes) {
			t.Fatalf("trial %d: concurrent absorb state differs from serial merge", trial)
		}
	}
}

func TestPredicateQueryMatchesLocal(t *testing.T) {
	cfg := core.EstimatorConfig{Capacity: 256, Copies: 5, Seed: 21}
	srcs := overlapSources(4, 13)
	msgs := siteMessages(t, cfg, srcs)

	local := core.NewEstimator(cfg)
	for _, src := range srcs {
		stream.Feed(src, func(it stream.Item) { local.ProcessWeighted(it.Label, it.Value) })
	}

	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	cl := testClient(addr)
	for _, msg := range msgs {
		if _, err := cl.Push(msg); err != nil {
			t.Fatal(err)
		}
	}

	got, err := cl.Query(wire.Query{Kind: wire.QueryCountWhere, HasSeed: true, Seed: cfg.Seed, Pred: wire.PredMod, A: 3, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := local.EstimateCountWhere(func(l uint64) bool { return l%3 == 1 })
	if got != want {
		t.Errorf("predicate count %.4f != local %.4f", got, want)
	}

	got, err = cl.Query(wire.Query{Kind: wire.QuerySumWhere, HasSeed: true, Seed: cfg.Seed, Pred: wire.PredRange, A: 0, B: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want = local.EstimateSumWhere(func(l uint64) bool { return l <= 1000 })
	if got != want {
		t.Errorf("predicate sum %.4f != local %.4f", got, want)
	}
}

// TestClientRetriesDroppedConnection: a coordinator that drops the
// first connection (crash, restart, flaky LB) must not lose the
// site's message — the client backs off and the retry succeeds.
func TestClientRetriesDroppedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	done := make(chan error, 1)
	go func() {
		// Drop the first connection without a byte of reply, then
		// hand the listener to the real server.
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn.Close()
		done <- srv.Serve(ln)
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	cfg := core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 3}
	est := core.NewEstimator(cfg)
	for x := uint64(0); x < 1000; x++ {
		est.Process(x)
	}
	msg, err := sketch.Envelope(est)
	if err != nil {
		t.Fatal(err)
	}
	attempts, err := testClient(ln.Addr().String()).Push(msg)
	if err != nil {
		t.Fatalf("push after dropped connection: %v", err)
	}
	if attempts < 2 {
		t.Errorf("succeeded in %d attempt(s); first connection should have failed", attempts)
	}
	st := srv.Stats()
	if st.SketchesAbsorbed != 1 {
		t.Errorf("absorbed %d, want 1", st.SketchesAbsorbed)
	}
}

func TestSeedMismatchTypedError(t *testing.T) {
	required := uint64(42)
	srv := server.New(server.Config{RequireSeed: &required})
	addr := startServer(t, srv)

	mk := func(seed uint64) []byte {
		est := core.NewEstimator(core.EstimatorConfig{Capacity: 32, Copies: 3, Seed: seed})
		est.Process(1)
		msg, err := sketch.Envelope(est)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	start := time.Now()
	attempts, err := testClient(addr).Push(mk(7))
	if !errors.Is(err, client.ErrSeedMismatch) {
		t.Fatalf("err = %v, want ErrSeedMismatch", err)
	}
	if attempts != 1 {
		t.Errorf("mismatch retried %d times; must be permanent", attempts)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("mismatch took %v; must fail fast, not hang", elapsed)
	}
	if _, err := testClient(addr).Push(mk(42)); err != nil {
		t.Errorf("matching seed rejected: %v", err)
	}
}

// TestVersionMismatch covers both halves: the server answers a frame
// from a future protocol version with the typed refusal ack, and the
// client maps that ack to ErrVersionMismatch without retrying.
func TestVersionMismatch(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)

	// Server half: hand-craft a frame with a bumped version byte.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	raw := wire.EncodeFrame(wire.MsgPush, []byte("payload"))
	raw[2] = wire.Version + 1
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading version-mismatch reply: %v", err)
	}
	if typ != wire.MsgAck {
		t.Fatalf("reply type %v, want ack", typ)
	}
	ack, err := wire.DecodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != wire.AckVersionMismatch {
		t.Errorf("ack code %v, want version-mismatch", ack.Code)
	}

	// Client half: a fake coordinator that always answers the
	// version-mismatch ack must surface the typed error, once.
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	go func() {
		for {
			c, err := fake.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, _, err := wire.ReadFrame(c, 0); err != nil {
					return
				}
				wire.WriteFrame(c, wire.MsgAck,
					wire.Ack{Code: wire.AckVersionMismatch, Detail: "speaks version 2"}.Encode())
			}(c)
		}
	}()
	attempts, err := testClient(fake.Addr().String()).Push([]byte("msg"))
	if !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if attempts != 1 {
		t.Errorf("version mismatch retried %d times; must be permanent", attempts)
	}
}

func TestCorruptPushRejected(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	_, err := testClient(addr).Push([]byte("not a sketch"))
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if st := srv.Stats(); st.SketchesAbsorbed != 0 || st.Rejected == 0 {
		t.Errorf("stats after corrupt push: %+v", st)
	}
}

// TestOversizePushRefusedOnce: a push larger than the coordinator's
// frame limit can never land, so its refusal must be permanent — one
// attempt, one rejection — not the transient bad-frame ack that
// damaged bytes get.
func TestOversizePushRefusedOnce(t *testing.T) {
	srv := server.New(server.Config{MaxPayload: 1024})
	addr := startServer(t, srv)
	cl := client.New(client.Config{Addr: addr, Attempts: 4, BackoffBase: time.Millisecond, JitterSeed: 1})
	attempts, err := cl.Push(make([]byte, 4<<10))
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if attempts != 1 {
		t.Errorf("oversize push made %d attempts, want 1", attempts)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// A gt envelope whose copy seed is not derived from its master seed
// carries a valid digest, so before decode checked the derivation it
// opened cleanly, became its group's sketch on first contact, and
// every legitimate push to the group was then refused with a
// permanent seed mismatch. The forgery must be refused on its own and
// leave the group free for the legitimate pushes.
func TestForgedCopySeedCannotPoisonGroup(t *testing.T) {
	cfg := core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 42}
	legit := core.NewEstimator(cfg)
	for x := uint64(0); x < 20; x++ {
		legit.Process(x)
	}
	env, err := sketch.Envelope(legit)
	if err != nil {
		t.Fatal(err)
	}
	// Copy 0's seed is the first SplitMix64 value of the master seed;
	// rewrite it in place.
	var seed0 [8]byte
	binary.LittleEndian.PutUint64(seed0[:], hashing.NewSplitMix64(cfg.Seed).Next())
	at := bytes.Index(env, seed0[:])
	if at < 0 {
		t.Fatal("copy 0 seed not found in the envelope")
	}
	forged := append([]byte(nil), env...)
	forged[at] ^= 1

	srv := server.New(server.Config{})
	if err := srv.AbsorbNamed("", forged); err == nil {
		t.Fatal("forged envelope absorbed, want a refusal")
	}
	for i := 0; i < 2; i++ {
		if err := srv.AbsorbNamed("", env); err != nil {
			t.Fatalf("legitimate push %d after the forgery: %v", i, err)
		}
	}
	if st := srv.Stats(); st.SketchesAbsorbed != 2 {
		t.Errorf("absorbed %d sketches, want 2", st.SketchesAbsorbed)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	cl := testClient(addr)

	if _, err := cl.DistinctCount(99); err == nil {
		t.Error("query against empty server succeeded")
	}

	// Two configs in play: an unseeded query is ambiguous, seeded ones
	// resolve.
	for _, seed := range []uint64{1, 2} {
		est := core.NewEstimator(core.EstimatorConfig{Capacity: 32, Copies: 3, Seed: seed})
		est.Process(seed)
		msg, _ := sketch.Envelope(est)
		if _, err := cl.Push(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Query(wire.Query{Kind: wire.QueryDistinct}); err == nil {
		t.Error("ambiguous unseeded query succeeded")
	}
	if _, err := cl.DistinctCount(1); err != nil {
		t.Errorf("seeded query: %v", err)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// An idle connection is open when shutdown begins; it must not
	// block the drain.
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	est := core.NewEstimator(core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 8})
	for x := uint64(0); x < 500; x++ {
		est.Process(x)
	}
	msg, _ := sketch.Envelope(est)
	if _, err := testClient(ln.Addr().String()).Push(msg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if st := srv.Stats(); st.SketchesAbsorbed != 1 {
		t.Errorf("absorbed %d after drain, want 1", st.SketchesAbsorbed)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 500*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

func TestStatszHTTP(t *testing.T) {
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	est := core.NewEstimator(core.EstimatorConfig{Capacity: 32, Copies: 3, Seed: 6})
	est.Process(123)
	msg, _ := sketch.Envelope(est)
	if _, err := testClient(addr).Push(msg); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.StatszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("statsz status %d", rec.Code)
	}
	var st server.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz is not JSON: %v", err)
	}
	if st.SketchesAbsorbed != 1 || st.SketchBytes != int64(len(msg)) {
		t.Errorf("statsz accounting: %+v", st)
	}
	if st.Merges != 1 || st.MergeNanosTotal <= 0 || st.MergeNanosMax <= 0 {
		t.Errorf("merge latency not recorded: %+v", st)
	}
	if math.IsNaN(st.MergeNanosMean) || st.MergeNanosMean <= 0 {
		t.Errorf("merge mean %v", st.MergeNanosMean)
	}
}

// serialMerge opens the envelopes in order, merges them into the
// first, and returns the accumulated envelope — the reference any
// concurrent absorb order must reproduce exactly.
func serialMerge(msgs [][]byte) ([]byte, error) {
	ref, err := sketch.Open(msgs[0])
	if err != nil {
		return nil, err
	}
	for _, msg := range msgs[1:] {
		sk, err := sketch.Open(msg)
		if err != nil {
			return nil, err
		}
		if err := ref.Merge(sk); err != nil {
			return nil, err
		}
	}
	return sketch.Envelope(ref)
}

// onlyGroup returns the envelope of srv's one merge group, failing the
// test when srv holds any other number of groups.
func onlyGroup(t *testing.T, srv *server.Server) []byte {
	t.Helper()
	snaps, err := srv.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("coordinator holds %d groups, want 1", len(snaps))
	}
	return snaps[0].Envelope
}

// TestConcurrentAbsorbAllKinds extends the bit-identical guarantee to
// every registered kind: concurrent absorbs of the same envelopes
// must leave the group byte-for-byte equal to a serial in-order
// merge, whatever the sketch's internals.
func TestConcurrentAbsorbAllKinds(t *testing.T) {
	for _, info := range sketch.Kinds() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			const sites = 6
			msgs := make([][]byte, sites)
			for i := 0; i < sites; i++ {
				sk := info.New(0.2, 31)
				for x := uint64(0); x < 1500; x++ {
					sk.Process((x*uint64(i+1) + x) % 4000)
				}
				env, err := sketch.Envelope(sk)
				if err != nil {
					t.Fatal(err)
				}
				msgs[i] = env
			}
			refBytes, err := serialMerge(msgs)
			if err != nil {
				t.Fatal(err)
			}

			srv := server.New(server.Config{})
			addr := startServer(t, srv)
			var wg sync.WaitGroup
			for _, msg := range msgs {
				wg.Add(1)
				go func(msg []byte) {
					defer wg.Done()
					if _, err := testClient(addr).Push(msg); err != nil {
						t.Error(err)
					}
				}(msg)
			}
			wg.Wait()
			if got := onlyGroup(t, srv); string(got) != string(refBytes) {
				t.Fatalf("concurrent absorb state differs from serial merge")
			}
		})
	}
}

// TestCrossKindGroups: two kinds sharing a coordination seed must land
// in separate merge groups; a seed-only query is then ambiguous, and
// naming the kind resolves it.
func TestCrossKindGroups(t *testing.T) {
	const seed = 42
	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	cl := testClient(addr)

	gt := core.NewEstimator(core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: seed})
	km := kmv.New(64, seed)
	for x := uint64(0); x < 2000; x++ {
		gt.Process(x)
		km.Process(x)
	}
	for _, sk := range []sketch.Sketch{gt, km} {
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Push(env); err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if len(st.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(st.Groups))
	}
	if _, err := cl.DistinctCount(seed); err == nil {
		t.Error("seed-only query across two kinds succeeded; want ambiguity error")
	}
	for _, k := range []sketch.Kind{sketch.KindGT, sketch.KindKMV} {
		est, err := cl.Query(wire.Query{
			Kind:    wire.QueryDistinct,
			HasSeed: true, Seed: seed,
			HasKind: true, SketchKind: uint8(k),
		})
		if err != nil {
			t.Fatalf("kind %v query: %v", k, err)
		}
		if est <= 0 {
			t.Errorf("kind %v estimate %v", k, est)
		}
	}
}

// TestKindMismatchTypedError: a coordinator pinned to one kind must
// answer other kinds with the typed refusal, which the client treats
// as permanent — exactly one attempt, no backoff spin.
func TestKindMismatchTypedError(t *testing.T) {
	srv := server.New(server.Config{RequireKind: "gt"})
	addr := startServer(t, srv)

	km := kmv.New(32, 7)
	km.Process(1)
	env, err := sketch.Envelope(km)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	attempts, err := testClient(addr).Push(env)
	if !errors.Is(err, client.ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch", err)
	}
	if attempts != 1 {
		t.Errorf("kind mismatch retried %d times; must be permanent", attempts)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("kind mismatch took %v; must fail fast, not hang", elapsed)
	}

	gt := core.NewEstimator(core.EstimatorConfig{Capacity: 32, Copies: 3, Seed: 7})
	gt.Process(1)
	env, err = sketch.Envelope(gt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testClient(addr).Push(env); err != nil {
		t.Errorf("matching kind rejected: %v", err)
	}
}
