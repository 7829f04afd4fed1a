package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// span is one timed call. Spans of one request share Trace; a child
// names its parent. Times are nanoseconds since the run's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory.
type tracer struct {
	epoch time.Time
	next  uint64
	spans []span
}

// newTracer returns a tracer whose span ids start at n<<40, so ids from
// different tracers never collide.
func newTracer(epoch time.Time, n uint64) *tracer {
	return &tracer{epoch: epoch, next: n << 40}
}

// open starts a span and returns its index; trace 0 starts a new trace
// rooted at this span.
func (t *tracer) open(trace, parent uint64, name string) int {
	t.next++
	if trace == 0 {
		trace = t.next
	}
	t.spans = append(t.spans, span{Trace: trace, ID: t.next, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// root records a finished request as the root span of a new trace.
func (t *tracer) root(name string, start, end time.Time) {
	t.next++
	t.spans = append(t.spans, span{Trace: t.next, ID: t.next, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// child times fn as a child span of spans[parent].
func (t *tracer) child(parent int, name string, fn func() error) error {
	p := t.spans[parent]
	i := t.open(p.Trace, p.ID, name)
	err := fn()
	t.close(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// meanNs returns the mean duration of the spans of each name. Every
// step the ledger reports is a leaf span, so its duration is its self
// time.
func meanNs(spans []span) map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.End - s.Start)
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum
}

// groupKey matches the coordinator's merge-group identity.
type groupKey struct {
	stream string
	kind   sketch.Kind
	digest uint64
}

// ledgerPass replays records serially through the public calls a push
// makes on its way through the pipeline, each in its own span under a
// per-record root: route (sharded only), frame encode, frame decode,
// envelope open, WAL append (durable only, SyncAlways like the live
// log), merge into a per-group accumulator primed with the oracle's
// fixpoint, and ack encode. It then times the calls a push does not
// make but the workload's other paths do: envelope encode (relay
// flush, snapshot, expression clone), in-process absorb, WAL replay,
// a relay flush round on a shard with its timer parked, and expression
// evaluation. It returns per-layer metrics keyed by name.
func ledgerPass(w *workload, cfg runConfig, pool []client.Record, orc *oracle, tr *tracer) (map[string]float64, error) {
	// Set only by workloads with a WAL or with queries.
	m := map[string]float64{"wal.replay_us_per_record": 0, "server.expr_allocs": 0}
	records := make([]client.Record, cfg.ledgerRecords)
	for i := range records {
		records[i] = pool[i%len(pool)]
	}
	acc := map[groupKey]sketch.Sketch{}
	for _, sn := range orc.snaps {
		sk, err := sketch.Open(sn.Envelope)
		if err != nil {
			return nil, fmt.Errorf("priming accumulators: %w", err)
		}
		acc[groupKey{sn.Stream, sn.Kind, sn.Digest}] = sk
	}

	var router *client.Sharded
	if w.topo == sharded {
		var err error
		router, err = client.NewSharded(cluster.NewRing(shards, 0, cfg.seed), make([]string, shards), client.Config{})
		if err != nil {
			return nil, err
		}
	}
	var log *wal.Log
	if w.topo == durable {
		dir, err := os.MkdirTemp("", "pipebench-ledger-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if log, err = openReplayed(dir); err != nil {
			return nil, err
		}
	}

	for _, rec := range records {
		if err := ledgerRecord(tr, rec, router, log, acc); err != nil {
			return nil, err
		}
	}

	if log != nil {
		dir := log.Dir()
		if err := log.Close(); err != nil {
			return nil, err
		}
		start := time.Now()
		replayed, err := openReplayed(dir)
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		n := replayed.Stats().ReplayedRecords
		if err := replayed.Close(); err != nil {
			return nil, err
		}
		m["wal.replay_us_per_record"] = ratio(float64(took)/1e3, float64(n))
	}

	for _, sn := range orc.snaps {
		i := tr.open(0, 0, "sketch.Envelope")
		_, err := sketch.Envelope(acc[groupKey{sn.Stream, sn.Kind, sn.Digest}])
		tr.close(i)
		if err != nil {
			return nil, err
		}
	}
	var err error
	if m["sketch.open_allocs"], err = allocsPer(len(records), func(i int) error {
		_, err := sketch.Open(records[i].Envelope)
		return err
	}); err != nil {
		return nil, err
	}
	if err := absorbPass(w, pool, records, tr); err != nil {
		return nil, err
	}
	if w.topo == sharded {
		if err := relayFlushPass(records, tr); err != nil {
			return nil, err
		}
	}
	if w.queries {
		for i := 0; i < 200; i++ {
			s := tr.open(0, 0, "server.AnswerExpr")
			_, err := orc.srv.AnswerExpr(exprQuery)
			tr.close(s)
			if err != nil {
				return nil, err
			}
		}
		if m["server.expr_allocs"], err = allocsPer(50, func(int) error {
			_, err := orc.srv.AnswerExpr(exprQuery)
			return err
		}); err != nil {
			return nil, err
		}
	}

	self := meanNs(tr.spans)
	steps := map[string]string{
		"cluster.route_ns": "client.RouteNamed",
		"wire.encode_ns":   "wire.encode",
		"wire.decode_ns":   "wire.decode",
		"sketch.open_ns":   "sketch.Open",
		"wal.append_ns":    "wal.AppendNamed",
		"sketch.merge_ns":  "sketch.Merge",
		"wire.ack_ns":      "wire.ack",
	}
	var path float64
	for metric, name := range steps {
		m[metric] = self[name]
		path += m[metric]
	}
	m["ledger.push_path_us"] = path / 1e3
	m["sketch.envelope_ns"] = self["sketch.Envelope"]
	m["server.absorb_ns"] = self["server.AbsorbNamed"]
	m["relay.flush_ms"] = self["relay.FlushRelay"] / 1e6
	m["server.expr_ns"] = self["server.AnswerExpr"]
	return m, nil
}

// ledgerRecord takes one record through the push path's calls, each a
// child span of one "ledger.push" root.
func ledgerRecord(tr *tracer, rec client.Record, router *client.Sharded, log *wal.Log, acc map[groupKey]sketch.Sketch) error {
	root := tr.open(0, 0, "ledger.push")
	defer tr.close(root)
	if router != nil {
		if err := tr.child(root, "client.RouteNamed", func() error {
			_, err := router.RouteNamed(rec.Stream, rec.Envelope)
			return err
		}); err != nil {
			return err
		}
	}
	typ := wire.MsgPush
	var frame []byte
	if err := tr.child(root, "wire.encode", func() error {
		payload := rec.Envelope
		if rec.Stream != "" {
			var err error
			if payload, err = wire.EncodePushNamed(rec.Stream, rec.Envelope); err != nil {
				return err
			}
			typ = wire.MsgPushNamed
		}
		frame = wire.EncodeFrame(typ, payload)
		return nil
	}); err != nil {
		return err
	}
	var stream string
	var env []byte
	if err := tr.child(root, "wire.decode", func() error {
		_, payload, _, err := wire.DecodeFrame(frame, 0)
		env = payload
		if err == nil && typ == wire.MsgPushNamed {
			stream, env, err = wire.DecodePushNamed(payload)
		}
		return err
	}); err != nil {
		return err
	}
	var sk sketch.Sketch
	if err := tr.child(root, "sketch.Open", func() error {
		var err error
		sk, err = sketch.Open(env)
		return err
	}); err != nil {
		return err
	}
	if log != nil {
		if err := tr.child(root, "wal.AppendNamed", func() error { return log.AppendNamed(stream, env) }); err != nil {
			return err
		}
	}
	a := acc[groupKey{stream, sk.Kind(), sk.Digest()}]
	if a == nil {
		return fmt.Errorf("record for stream %q has no oracle group", stream)
	}
	if err := tr.child(root, "sketch.Merge", func() error { return a.Merge(sk) }); err != nil {
		return err
	}
	return tr.child(root, "wire.ack", func() error {
		wire.EncodeFrame(wire.MsgAck, wire.Ack{Code: wire.AckOK}.Encode())
		return nil
	})
}

// openReplayed opens the WAL in dir with the durable workload's sync
// policy and replays it, as a booting coordinator would before its
// first append.
func openReplayed(dir string) (*wal.Log, error) {
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	if _, err := log.Replay(func(string, []byte) error { return nil }); err != nil {
		log.Close()
		return nil, err
	}
	return log, nil
}

// absorbPass times Server.AbsorbNamed, the coordinator's whole push
// path minus the network, on a scratch coordinator configured like the
// workload's and primed with the pool.
func absorbPass(w *workload, pool, records []client.Record, tr *tracer) error {
	cfg := server.Config{}
	if w.topo == durable {
		dir, err := os.MkdirTemp("", "pipebench-absorb-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.WAL = &server.WALConfig{Dir: dir, Sync: wal.SyncAlways}
	}
	srv := server.New(cfg)
	for _, r := range pool {
		if err := srv.AbsorbNamed(r.Stream, r.Envelope); err != nil {
			return err
		}
	}
	for _, r := range records {
		i := tr.open(0, 0, "server.AbsorbNamed")
		err := srv.AbsorbNamed(r.Stream, r.Envelope)
		tr.close(i)
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// relayFlushPass times FlushRelay rounds on a scratch relay shard whose
// timer is parked (it never serves), each round pushing the groups the
// records dirtied to a scratch parent over loopback TCP.
func relayFlushPass(records []client.Record, tr *tracer) error {
	parent := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- parent.Serve(ln) }()
	shard := server.New(server.Config{Relay: &server.RelayConfig{Upstream: ln.Addr().String(), FlushInterval: time.Hour}})
	for round := 0; round < 5 && err == nil; round++ {
		for _, r := range records {
			if err = shard.AbsorbNamed(r.Stream, r.Envelope); err != nil {
				break
			}
		}
		if err == nil {
			i := tr.open(0, 0, "relay.FlushRelay")
			_, err = shard.FlushRelay()
			tr.close(i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := parent.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}

// allocsPer returns the mean heap allocations of fn over n calls. It
// runs after the topology is down, so nothing else allocates.
func allocsPer(n int, fn func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
