package server_test

// Chaos suite for the coordinator: deterministic fault injection via
// internal/failpoint (process faults) and internal/faultnet (network
// faults), asserting the union algebra's operational guarantees —
// duplicate delivery and arrival order never change the merged state,
// a site dying mid-frame leaves group state untouched, and a retrying
// fleet pushed through any seeded fault schedule converges to the
// bit-identical fault-free result.
//
// Run with -chaos.seed=N to pin the fault schedule; ci.sh sweeps
// seeds 1..3. Without the flag the suite runs seed 1 so plain
// `go test ./...` stays fast.

import (
	"bytes"
	"errors"
	"flag"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/faultnet"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/wire"
)

var chaosSeed = flag.Uint64("chaos.seed", 0, "fault schedule seed for the chaos suite (0 = default seed 1)")

func chaosSeeds() []uint64 {
	if *chaosSeed != 0 {
		return []uint64{*chaosSeed}
	}
	return []uint64{1}
}

// serialReference merges the envelopes in order and returns the
// canonical accumulated encoding — the fault-free ground truth every
// chaos run must reproduce bit for bit.
func serialReference(t *testing.T, msgs [][]byte) []byte {
	t.Helper()
	out, err := serialMerge(msgs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chaosClient is tuned for fault schedules: many attempts, tight
// timeouts so black-holed acks fail fast, fixed jitter so the retry
// cadence is reproducible.
func chaosClient(addr string) *client.Client {
	return client.New(client.Config{
		Addr:        addr,
		Attempts:    25,
		DialTimeout: time.Second,
		IOTimeout:   250 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
		JitterSeed:  1,
	})
}

// TestChaosDuplicateDeliveryIdempotent: delivering every sketch
// several times (at-least-once semantics) must leave the group
// bit-identical to exactly-once delivery — the merge is a set union.
func TestChaosDuplicateDeliveryIdempotent(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 101}
		msgs := siteMessages(t, cfg, overlapSources(6, seed))
		ref := serialReference(t, msgs)

		srv := server.New(server.Config{})
		addr := startServer(t, srv)
		cl := testClient(addr)
		rng := hashing.NewSplitMix64(seed)
		total := 0
		for i, msg := range msgs {
			copies := 1 + int(rng.Next()%3)
			total += copies
			for c := 0; c < copies; c++ {
				if _, err := cl.Push(msg); err != nil {
					t.Fatalf("seed %d: site %d copy %d: %v", seed, i, c, err)
				}
			}
		}
		got := onlyGroup(t, srv)
		if !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: duplicated delivery changed the merged state", seed)
		}
		if st := srv.Stats(); st.SketchesAbsorbed != int64(total) {
			t.Errorf("seed %d: absorbed %d, want %d (every duplicate acked)", seed, st.SketchesAbsorbed, total)
		}
	}
}

// TestChaosArrivalOrderCommutative: pushing the same sketches in
// seeded random orders must always land on the identical merged state.
func TestChaosArrivalOrderCommutative(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 202}
		msgs := siteMessages(t, cfg, overlapSources(8, seed+1))
		ref := serialReference(t, msgs)

		rng := hashing.NewXoshiro256(seed)
		for trial := 0; trial < 3; trial++ {
			order := make([]int, len(msgs))
			for i := range order {
				order[i] = i
			}
			for i := len(order) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			srv := server.New(server.Config{})
			addr := startServer(t, srv)
			cl := testClient(addr)
			for _, idx := range order {
				if _, err := cl.Push(msgs[idx]); err != nil {
					t.Fatal(err)
				}
			}
			got := onlyGroup(t, srv)
			if !bytes.Equal(got, ref) {
				t.Fatalf("seed %d trial %d: order %v produced a different merged state", seed, trial, order)
			}
		}
	}
}

// TestChaosMidFrameDeathLeavesStateUntouched: a site that dies halfway
// through its frame must not perturb the group — and the same site
// retrying afterward must complete the union as if nothing happened.
func TestChaosMidFrameDeathLeavesStateUntouched(t *testing.T) {
	cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 303}
	msgs := siteMessages(t, cfg, overlapSources(2, 7))

	srv := server.New(server.Config{})
	addr := startServer(t, srv)
	cl := testClient(addr)
	if _, err := cl.Push(msgs[0]); err != nil {
		t.Fatal(err)
	}
	before := onlyGroup(t, srv)

	// Site 1 dies mid-frame: a truncating proxy cuts the connection
	// after the header and part of the payload have left.
	p, err := faultnet.New(addr, faultnet.Script{
		{Up: faultnet.PathPlan{Kind: faultnet.Truncate, AfterBytes: wire.HeaderSize + 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	one := client.New(client.Config{Addr: p.Addr(), Attempts: 1, IOTimeout: time.Second, JitterSeed: 1})
	if _, err := one.Push(msgs[1]); err == nil {
		t.Fatal("push through a mid-frame cut succeeded")
	}
	p.Close()

	// The server must have seen (and rejected) the partial frame
	// without touching the group.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never registered the truncated frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := onlyGroup(t, srv)
	if !bytes.Equal(before, after) {
		t.Fatal("mid-frame death perturbed the merged group state")
	}
	if got := srv.Stats().SketchesAbsorbed; got != 1 {
		t.Fatalf("absorbed %d after partial frame, want 1", got)
	}

	// The site retries intact and the union completes exactly.
	if _, err := cl.Push(msgs[1]); err != nil {
		t.Fatal(err)
	}
	got := onlyGroup(t, srv)
	if !bytes.Equal(got, serialReference(t, msgs)) {
		t.Fatal("state after retry differs from the fault-free union")
	}
}

// TestChaosFailpointAbsorbLeavesGroupUntouched: an absorb that fails
// inside the server (post-validation, pre-merge) must ack a retryable
// error, leave the group untouched, and let the retry land.
func TestChaosFailpointAbsorbLeavesGroupUntouched(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	cfg := core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 404}
	msgs := siteMessages(t, cfg, overlapSources(1, 11))

	srv := server.New(server.Config{})
	addr := startServer(t, srv)

	failpoint.Enable(failpoint.ServerAbsorb, failpoint.Times(2, errors.New("injected absorb fault")))
	attempts, err := chaosClient(addr).Push(msgs[0])
	if err != nil {
		t.Fatalf("push never converged past absorb faults: %v", err)
	}
	if attempts != 3 {
		t.Errorf("converged in %d attempts, want 3 (two injected failures)", attempts)
	}
	if hits := failpoint.Hits(failpoint.ServerAbsorb); hits < 3 {
		t.Errorf("absorb failpoint hit %d times, want >= 3", hits)
	}
	if st := srv.Stats(); st.SketchesAbsorbed != 1 {
		t.Errorf("absorbed %d, want 1 (failed absorbs must not count)", st.SketchesAbsorbed)
	}
	got := onlyGroup(t, srv)
	if !bytes.Equal(got, serialReference(t, msgs)) {
		t.Fatal("state after absorb faults differs from clean push")
	}
}

// TestChaosAcceptFaultThenRecovery: transient accept-path failures
// (fd exhaustion, conntrack pressure) drop connections without reply;
// the client's retry loop must ride them out.
func TestChaosAcceptFaultThenRecovery(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	cfg := core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 505}
	msgs := siteMessages(t, cfg, overlapSources(1, 13))

	srv := server.New(server.Config{})
	addr := startServer(t, srv)

	failpoint.Enable(failpoint.ServerAccept, failpoint.Times(2, errors.New("injected accept fault")))
	attempts, err := chaosClient(addr).Push(msgs[0])
	if err != nil {
		t.Fatalf("push never converged past accept faults: %v", err)
	}
	if attempts < 3 {
		t.Errorf("converged in %d attempts, want >= 3 (two dropped connections)", attempts)
	}
	got := onlyGroup(t, srv)
	if !bytes.Equal(got, serialReference(t, msgs)) {
		t.Fatal("state after accept faults differs from clean push")
	}
}

// TestChaosDrainUnderFailpoint: a fault at drain start must not stop
// Shutdown from completing or lose an absorbed sketch.
func TestChaosDrainUnderFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	cfg := core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 606}
	msgs := siteMessages(t, cfg, overlapSources(1, 17))

	srv := server.New(server.Config{})
	addr := startServer(t, srv) // Cleanup runs Shutdown and asserts it succeeds
	if _, err := testClient(addr).Push(msgs[0]); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(failpoint.ServerDrain, failpoint.Error(errors.New("injected drain fault")))
	if st := srv.Stats(); st.SketchesAbsorbed != 1 {
		t.Errorf("absorbed %d before drain, want 1", st.SketchesAbsorbed)
	}
}

// TestChaosSeededScheduleConvergesBitIdentical is the headline chaos
// property: a retrying fleet pushed through a seeded fault proxy —
// rejects, mid-frame cuts, bit flips, swallowed acks, duplicates —
// must converge to the bit-identical fault-free union, and replaying
// the same seed must reproduce the exact fault trace.
func TestChaosSeededScheduleConvergesBitIdentical(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 707}
		msgs := siteMessages(t, cfg, overlapSources(8, seed+2))
		ref := serialReference(t, msgs)

		run := func() (snapshot []byte, trace string) {
			srv := server.New(server.Config{})
			addr := startServer(t, srv)
			p, err := faultnet.New(addr, faultnet.Seeded(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			cl := chaosClient(p.Addr())
			for i, msg := range msgs {
				if _, err := cl.Push(msg); err != nil {
					t.Fatalf("seed %d: site %d never converged: %v", seed, i, err)
				}
			}
			p.Close() // flush handlers so the trace is complete
			return onlyGroup(t, srv), p.TraceString()
		}

		snap1, trace1 := run()
		if !bytes.Equal(snap1, ref) {
			t.Fatalf("seed %d: chaos run state differs from fault-free serial union", seed)
		}
		snap2, trace2 := run()
		if !bytes.Equal(snap1, snap2) {
			t.Fatalf("seed %d: two runs of the same fault schedule diverged", seed)
		}
		if trace1 != trace2 {
			t.Fatalf("seed %d: fault trace not reproducible:\n--- run 1\n%s--- run 2\n%s", seed, trace1, trace2)
		}
		if trace1 == "" {
			t.Fatalf("seed %d: empty fault trace — the schedule never fired", seed)
		}
	}
}
