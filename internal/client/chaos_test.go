package client_test

// Chaos suite for the site client: failpoint faults on the dial,
// write, and read paths must be ridden out by the retry loop, and a
// client pushed through a seeded faultnet proxy must converge to the
// bit-identical fault-free merge — the operational consequence of the
// paper's idempotent, commutative sketch union.
//
// Run with -chaos.seed=N to pin the fault schedule; ci.sh sweeps
// seeds 1..3. External test package: the suite stands up
// internal/server, which itself builds on this client.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/sketch"
)

var chaosSeed = flag.Uint64("chaos.seed", 0, "fault schedule seed for the chaos suite (0 = default seed 1)")

func chaosSeeds() []uint64 {
	if *chaosSeed != 0 {
		return []uint64{*chaosSeed}
	}
	return []uint64{1}
}

// chaosCoordinator runs a real coordinator on loopback for the
// convergence tests.
func chaosCoordinator(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{})
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
	return srv, ln.Addr().String()
}

// chaosMessages builds per-site sketch messages over overlapping label
// ranges, plus the envelope of the serial fault-free reference merge.
func chaosMessages(t *testing.T, cfg core.EstimatorConfig, sites int) (msgs [][]byte, ref []byte) {
	t.Helper()
	union := core.NewEstimator(cfg)
	for i := 0; i < sites; i++ {
		est := core.NewEstimator(cfg)
		// Site i observes labels [i·600, i·600+1000): adjacent sites
		// share 400 labels, so the union is a genuine overlap case.
		for x := uint64(i) * 600; x < uint64(i)*600+1000; x++ {
			est.Process(x)
			union.Process(x)
		}
		msg, err := sketch.Envelope(est)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
	}
	ref, err := sketch.Envelope(union)
	if err != nil {
		t.Fatal(err)
	}
	return msgs, ref
}

// TestChaosFailpointSitesRetried: an injected fault at each client
// failpoint (dial, write, read) must be treated as transient — the
// loop retries exactly past the injected failures and succeeds.
func TestChaosFailpointSitesRetried(t *testing.T) {
	for _, site := range []failpoint.Site{failpoint.ClientDial, failpoint.ClientWrite, failpoint.ClientRead} {
		t.Run(site.String(), func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			_, addr := chaosCoordinator(t)
			msgs, _ := chaosMessages(t, core.EstimatorConfig{Capacity: 32, Copies: 3, Seed: 11}, 1)

			failpoint.Enable(site, failpoint.Times(2, errors.New("injected "+site.String()+" fault")))
			cl := client.New(client.Config{Addr: addr, Attempts: 5, BackoffBase: time.Millisecond, JitterSeed: 1})
			attempts, err := cl.Push(msgs[0])
			if err != nil {
				t.Fatalf("push never converged past %s faults: %v", site, err)
			}
			if attempts != 3 {
				t.Errorf("converged in %d attempts, want 3 (two injected failures)", attempts)
			}
			if hits := failpoint.Hits(site); hits != 3 {
				t.Errorf("failpoint hit %d times, want 3", hits)
			}
		})
	}
}

// TestChaosFailpointFaultsExhaustAttempts: a failpoint that never
// recovers must burn every attempt and surface the injected cause.
func TestChaosFailpointFaultsExhaustAttempts(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	_, addr := chaosCoordinator(t)
	injected := errors.New("injected permanent outage")
	failpoint.Enable(failpoint.ClientDial, failpoint.Error(injected))
	cl := client.New(client.Config{Addr: addr, Attempts: 3, BackoffBase: time.Millisecond, JitterSeed: 1})
	attempts, err := cl.Push([]byte("msg"))
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected cause", err)
	}
	if attempts != 3 {
		t.Errorf("%d attempts, want 3 (exhausted)", attempts)
	}
}

// TestChaosConvergesThroughSeededProxy: a client pushing a fleet's
// messages serially through a seeded fault proxy — rejected dials,
// mid-frame cuts, corrupted bytes, swallowed acks, duplicated
// deliveries — must leave the coordinator bit-identical to the
// fault-free serial union, and the same seed must reproduce the same
// fault trace and state exactly.
func TestChaosConvergesThroughSeededProxy(t *testing.T) {
	for _, seed := range chaosSeeds() {
		cfg := core.EstimatorConfig{Capacity: 128, Copies: 3, Seed: 808}
		msgs, ref := chaosMessages(t, cfg, 8)

		run := func() (snapshot []byte, trace string) {
			srv, addr := chaosCoordinator(t)
			p, err := faultnet.New(addr, faultnet.Seeded(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			cl := client.New(client.Config{
				Addr:        p.Addr(),
				Attempts:    25,
				DialTimeout: time.Second,
				IOTimeout:   250 * time.Millisecond,
				BackoffBase: time.Millisecond,
				BackoffMax:  8 * time.Millisecond,
				JitterSeed:  1,
			})
			for i, msg := range msgs {
				if _, err := cl.Push(msg); err != nil {
					t.Fatalf("seed %d: site %d never converged: %v", seed, i, err)
				}
			}
			p.Close()
			snaps, err := srv.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != 1 {
				t.Fatalf("seed %d: coordinator holds %d groups, want 1", seed, len(snaps))
			}
			return snaps[0].Envelope, p.TraceString()
		}

		snap1, trace1 := run()
		if !bytes.Equal(snap1, ref) {
			t.Fatalf("seed %d: chaos state differs from fault-free serial union", seed)
		}
		snap2, trace2 := run()
		if !bytes.Equal(snap1, snap2) || trace1 != trace2 {
			t.Fatalf("seed %d: replay diverged\n--- trace 1\n%s--- trace 2\n%s", seed, trace1, trace2)
		}
	}
}
