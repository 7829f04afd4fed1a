package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distnet"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"

	// Register every sketch kind the workloads name.
	_ "repro/internal/sketch/kinds"
)

// topology is the coordinator layout a workload boots.
type topology int

const (
	single  topology = iota // one coordinator, no WAL
	durable                 // one coordinator logging to a SyncAlways WAL
	sharded                 // distnet cluster: 3 relay shards into a parent
)

// workload is one traffic mix. Fixture sizes are fixed here; only the
// labels, the group seeds and the push order come from --seed.
type workload struct {
	name  string
	topo  topology
	kinds []string // registry kinds, each with `groups` merge groups
	// streams > 0 replaces kinds/groups with named streams s0..s{n-1},
	// all of one gt configuration so set expressions can combine them.
	streams int
	groups  int
	sites   int // site envelopes per group (per stream)
	items   int // labels each site processes
	batch   int // records per PushBatchNamed call
	// queries makes the second client loop QueryExpr instead of pushing.
	queries bool
}

var workloads = []*workload{
	{name: "gt-ingest", topo: single, kinds: []string{"gt"}, groups: 16, sites: 8, items: 4096, batch: 8},
	{name: "kmv-durable", topo: durable, kinds: []string{"kmv"}, groups: 256, sites: 4, items: 4096, batch: 16},
	{name: "sharded-relay", topo: sharded, kinds: []string{"kmv", "hll"}, groups: 512, sites: 2, items: 4096, batch: 32},
	{name: "expr-mix", topo: single, streams: 4, sites: 8, items: 4096, batch: 8, queries: true},
}

const (
	clients = 2 // closed-loop client goroutines, one connection each
	shards  = 3 // sharded-relay shard count
	// relayFlush is the sharded-relay shard timer: short enough that a
	// window averages hundreds of flush rounds per shard.
	relayFlush = 100 * time.Millisecond
	// eps is the relative error every registry-built sketch targets.
	eps = 0.1
	// universe bounds site labels; sites of one group overlap in it.
	universe = 1 << 20
	// sharedUniverse is the label range every expr-mix stream draws half
	// its labels from, so intersections and differences have mass.
	sharedUniverse = 1 << 16
)

// exprQuery is the expression expr-mix's query client loops.
var exprQuery = wire.ExprQuery{Expr: wire.Diff(
	wire.Intersect(wire.Union(wire.Leaf("s0"), wire.Leaf("s1")), wire.Leaf("s2")),
	wire.Leaf("s3"))}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fixture sketches every site of the workload and returns the pool of
// site records in generation order, plus the total time spent in
// Sketch.Process and the number of labels processed.
func (w *workload) fixture(seed uint64) (pool []client.Record, process time.Duration, items int, err error) {
	rng := hashing.NewXoshiro256(seed)
	seeds := hashing.NewSplitMix64(seed)
	labels := make([]uint64, w.items)
	site := func(stream string, sk sketch.Sketch, label func() uint64) error {
		for i := range labels {
			labels[i] = label()
		}
		start := time.Now()
		for _, l := range labels {
			sk.Process(l)
		}
		process += time.Since(start)
		items += len(labels)
		env, err := sketch.Envelope(sk)
		if err != nil {
			return err
		}
		pool = append(pool, client.Record{Stream: stream, Envelope: env})
		return nil
	}

	if w.streams > 0 {
		cfg := core.EstimatorConfig{Capacity: 256, Copies: 5, Seed: seeds.Next()}
		for st := 0; st < w.streams; st++ {
			own := uint64(st+1) << 32
			label := func() uint64 {
				if rng.Uint64()&1 == 0 {
					return rng.Uint64n(sharedUniverse)
				}
				return own | rng.Uint64n(sharedUniverse)
			}
			for s := 0; s < w.sites; s++ {
				if err := site(fmt.Sprintf("s%d", st), core.NewEstimator(cfg), label); err != nil {
					return nil, 0, 0, err
				}
			}
		}
		return pool, process, items, nil
	}
	label := func() uint64 { return rng.Uint64n(universe) }
	for _, kind := range w.kinds {
		info, ok := sketch.LookupName(kind)
		if !ok {
			return nil, 0, 0, fmt.Errorf("sketch kind %q is not registered", kind)
		}
		for g := 0; g < w.groups; g++ {
			groupSeed := seeds.Next()
			for s := 0; s < w.sites; s++ {
				if err := site("", info.New(eps, groupSeed), label); err != nil {
					return nil, 0, 0, err
				}
			}
		}
	}
	return pool, process, items, nil
}

// oracle is the serial reference: one in-process coordinator that
// absorbed every pool envelope exactly once. Merges are idempotent
// joins, so that is the fixpoint any number of concurrent re-pushes
// must reach.
type oracle struct {
	srv    *server.Server
	snaps  []server.GroupSnapshot
	answer *wire.ExprResult // expr-mix only
}

func newOracle(w *workload, pool []client.Record) (*oracle, error) {
	srv := server.New(server.Config{})
	for _, r := range pool {
		if err := srv.AbsorbNamed(r.Stream, r.Envelope); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	snaps, err := srv.Snapshots()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{srv: srv, snaps: snaps}
	if w.queries {
		if o.answer, err = srv.AnswerExpr(exprQuery); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return o, nil
}

// diffSnapshots names the first group where got departs from want.
func diffSnapshots(got, want []server.GroupSnapshot) error {
	name := func(g server.GroupSnapshot) string {
		return fmt.Sprintf("stream %q kind %s digest %016x", g.Stream, g.KindName, g.Digest)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("group [%s] is missing", name(want[i]))
		case i >= len(want):
			return fmt.Errorf("group [%s] is not in the oracle", name(got[i]))
		case got[i].Stream != want[i].Stream || got[i].Kind != want[i].Kind || got[i].Digest != want[i].Digest:
			return fmt.Errorf("group [%s] where the oracle has [%s]", name(got[i]), name(want[i]))
		case !bytes.Equal(got[i].Envelope, want[i].Envelope):
			return fmt.Errorf("group [%s] differs from the oracle", name(got[i]))
		}
	}
	return nil
}

// diffAnswer names the first expression node whose answer is not
// float64-identical to the oracle's.
func diffAnswer(got, want *wire.ExprResult) error {
	if (got == nil) != (want == nil) {
		return errors.New("expression result tree shape differs from the oracle")
	}
	if got == nil {
		return nil
	}
	if got.Op != want.Op || got.Stream != want.Stream ||
		math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		math.Float64bits(got.ErrBound) != math.Float64bits(want.ErrBound) {
		return fmt.Errorf("expression node %s %q answered %v±%v, the oracle %v±%v",
			got.Op, got.Stream, got.Value, got.ErrBound, want.Value, want.ErrBound)
	}
	if err := diffAnswer(got.Left, want.Left); err != nil {
		return err
	}
	return diffAnswer(got.Right, want.Right)
}

// rig is a booted topology plus the closed-loop clients aimed at it.
type rig struct {
	topo topology
	// srv and served are the single/durable coordinator and its Serve
	// result; walCfg its log (durable only).
	srv    *server.Server
	served chan error
	walCfg *server.WALConfig
	// cluster is the sharded-relay tier.
	cluster *distnet.Cluster
	// coords are the coordinators the sites push to.
	coords []*server.Server

	pushers []func([]client.Record) (int, error)
	query   func() (*wire.ExprResult, error)
}

// boot starts the workload's topology on 127.0.0.1 and returns once a
// first push can be sent.
func boot(w *workload, seed uint64) (*rig, error) {
	r := &rig{topo: w.topo}
	if w.topo == sharded {
		cl, err := distnet.StartCluster(distnet.ClusterOptions{Shards: shards, RingSeed: seed, FlushInterval: relayFlush})
		if err != nil {
			return nil, err
		}
		r.cluster, r.coords = cl, cl.Servers
		for _, srv := range append([]*server.Server{cl.Parent}, cl.Servers...) {
			if err := awaitServing(srv, nil); err != nil {
				cl.Close()
				return nil, err
			}
		}
		for i := 0; i < clients; i++ {
			sc, err := cl.Client()
			if err != nil {
				cl.Close()
				return nil, err
			}
			r.pushers = append(r.pushers, sc.PushBatchNamed)
		}
		return r, nil
	}

	cfg := server.Config{}
	if w.topo == durable {
		dir, err := os.MkdirTemp("", "pipebench-wal-")
		if err != nil {
			return nil, err
		}
		r.walCfg = &server.WALConfig{Dir: dir, Sync: wal.SyncAlways}
		cfg.WAL = r.walCfg
	}
	addr, err := r.serve(server.New(cfg))
	if err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c := client.New(client.Config{Addr: addr, JitterSeed: int64(i) + 1})
		if w.queries && i == clients-1 {
			r.query = func() (*wire.ExprResult, error) { return c.QueryExpr(exprQuery) }
			continue
		}
		r.pushers = append(r.pushers, c.PushBatchNamed)
	}
	return r, nil
}

// serve starts srv on a loopback listener and waits until it accepts:
// a durable coordinator replays its log first.
func (r *rig) serve(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.srv, r.served, r.coords = srv, make(chan error, 1), []*server.Server{srv}
	go func() { r.served <- srv.Serve(ln) }()
	return ln.Addr().String(), awaitServing(srv, r.served)
}

// awaitServing waits until srv accepts connections. served, when not
// nil, carries Serve's result; it is put back for the caller.
func awaitServing(srv *server.Server, served chan error) error {
	deadline := time.After(30 * time.Second)
	for srv.Addr() == nil {
		select {
		case err := <-served:
			served <- err
			return fmt.Errorf("coordinator refused to serve: %w", err)
		case <-deadline:
			return errors.New("coordinator did not start serving within 30s")
		case <-time.After(50 * time.Microsecond):
		}
	}
	return nil
}

// settled is what the topology's after-load leg measured.
type settled struct {
	recover   time.Duration // durable: Abort → rebooted coordinator accepting
	replayed  int64         // durable: snapshot groups + records the reboot replayed
	converge  time.Duration // sharded: load stop → every shard's relay drained
	foreign   int64         // sharded: groups held by a shard the ring does not assign them to
	judgedSrv *server.Server
}

// settle brings the topology to its final state once the load has
// stopped and returns the coordinator the oracle judges.
func (r *rig) settle() (settled, error) {
	var s settled
	switch r.topo {
	case single:
		s.judgedSrv = r.srv
	case durable:
		// Crash the coordinator and reboot a fresh one from the log: the
		// acked pushes must all survive.
		r.srv.Abort()
		if err := <-r.served; err != nil {
			return s, fmt.Errorf("aborted coordinator: %w", err)
		}
		start := time.Now()
		if _, err := r.serve(server.New(server.Config{WAL: r.walCfg})); err != nil {
			return s, fmt.Errorf("reboot from the WAL: %w", err)
		}
		s.recover = time.Since(start)
		if st := r.srv.Stats().WAL; st != nil {
			s.replayed = st.ReplayedRecords + st.ReplayedSnapshotGroups
		}
		s.judgedSrv = r.srv
	case sharded:
		start := time.Now()
		for r.cluster.PendingRelay() > 0 {
			if time.Since(start) > 60*time.Second {
				return s, errors.New("relay did not drain within 60s")
			}
			if _, err := r.cluster.FlushAll(); err != nil {
				return s, fmt.Errorf("relay drain: %w", err)
			}
		}
		s.converge = time.Since(start)
		for _, shard := range r.coords {
			if c := shard.Stats().Cluster; c != nil {
				s.foreign += c.GroupsForeign
			}
		}
		s.judgedSrv = r.cluster.Parent
	}
	return s, nil
}

// close stops the topology and removes its WAL directory.
func (r *rig) close() error {
	var err error
	switch {
	case r.cluster != nil:
		err = r.cluster.Close()
	case r.srv != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = r.srv.Shutdown(ctx)
		cancel()
		err = errors.Join(err, <-r.served)
	}
	if r.walCfg != nil {
		err = errors.Join(err, os.RemoveAll(r.walCfg.Dir))
	}
	return err
}
