// Command pipebench is the repository's pipeline benchmark. It drives
// the coordinator the way sites do — client → TCP → frame read →
// envelope decode → WAL append/fsync → group merge → ack, plus the
// relay hop — and reports what a push costs (set-up time, wire bytes,
// frames, heap size, allocations) and how fast the pipeline runs
// (pushes per second, push latency, CPU per push), or, in a traced run,
// a per-layer ledger of where a push's time goes.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash pipebench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones; both are declared with units,
// and the end-to-end ones with regression bounds, in BENCHMARK.json at
// the repository root. Every other line names a metric with its unit
// and, for percentiles, its sample count; an untraced run prints the
// pipeline.* throughput and latency metrics there too.
//
// # Workloads
//
//   - gt-ingest: one coordinator without a WAL; 16 gt groups × 8 sites
//     (≈33 KB envelopes) pushed in batches of 8. Envelope decode and the
//     gt merge do nearly all the work; the WAL and relay do none.
//   - kmv-durable: one coordinator logging to a SyncAlways WAL; 256 kmv
//     groups × 4 sites (≈780 B envelopes) in batches of 16. One fsync per
//     push and the per-frame round trips dominate; decode and merge are
//     a few percent.
//   - sharded-relay: distnet.StartCluster with 3 relay shards flushing to
//     a parent every 100 ms; 512 kmv + 512 hll groups × 2 sites in
//     batches of 32 through the ring-routing client. The only workload
//     with routing, multi-shard dials and the relay hop.
//   - expr-mix: one coordinator holding named gt streams s0..s3 (8 sites
//     each, half of every stream's labels shared); one client pushes
//     named batches of 8 while the other loops the query
//     ((s0|s1)&s2)-s3 — reads and writes on the same group mutexes.
//
// # Closed loop
//
// Two client goroutines (the host's core count), each on its own
// connection, send their next request only after the previous one was
// acked — exactly how client.PushBatchNamed and a relay shard's
// upstream client push. A slower pipeline therefore receives less load
// rather than a growing queue: pipeline.push_per_s is the pipeline's
// capacity at two concurrent callers, and the latency percentiles are
// service times.
//
// # Run
//
// Set-up (site sketching from --seed plus topology boot) is repeated at
// least three times and for at least a second, both before and after
// the load, and the median of all reps is reported as setup_s. A
// warm-up first pushes every pool envelope once, in order, so every
// group sits at its merge fixpoint, and lasts at least 2 s. The
// measured window follows. Then the oracle
// check: a serial in-process coordinator that absorbed each pool
// envelope once. gt-ingest and expr-mix must match it byte for byte;
// kmv-durable after Abort and a reboot from its WAL; sharded-relay at
// the parent after every shard's relay drained; every expr-mix answer
// must be float64-identical to the oracle's. A mismatch names the first
// differing group and exits 1.
//
// # Reading the ledger
//
// A traced run keeps spans in memory (--spans writes them out as JSON
// lines). Root spans wrap each request of the window, which alternates
// untraced and traced tenths: trace.overhead_frac is the traced push
// rate's shortfall against the untraced one. After the load, a ledger
// pass replays 2000 records (the pool in push order, cycled) serially
// through the public calls a push makes — route, frame encode, frame decode,
// sketch.Open, WAL append, merge into a primed group, ack encode —
// each in a child span. Every step is a leaf, so its self time is its
// duration. ledger.push_path_us sums those steps per envelope, and
// ledger.attributed_frac divides it by the measured
// pipeline.push_p50_ms per envelope: the remainder is TCP, scheduling, queueing and lock wait,
// none of which the serial pass can see. Workloads without a WAL,
// relay, ring or queries report 0 for those layers.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
)

// runConfig is everything one workload run depends on besides the
// workload itself.
type runConfig struct {
	seed   uint64
	warmup time.Duration
	window time.Duration
	// Set-up repeats, before and again after the load, until it has run
	// setupReps times and for setupTime in all.
	setupReps     int
	setupTime     time.Duration
	ledgerRecords int
	trace         bool
	// tamper, when set, corrupts the oracle before the check; the tests
	// use it to prove a wrong result fails the run.
	tamper func(*oracle)
}

const (
	defaultWarmup    = 2 * time.Second
	defaultSetupReps = 3
	defaultSetupTime = time.Second
	ledgerRecords    = 2000
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics a run reports with --trace 0
// and --trace 1. BENCHMARK.json declares the same names and units.
//
// The end-to-end metrics are the costs a push imposes that do not move
// with the host's speed: set-up time (mostly per-label Process), wire
// bytes (the paper's communication cost), the frames a site waits on
// an ack for (batching or pipelining the protocol moves them), heap
// size (the space cost) and heap allocations. On a shared host, CPU
// efficiency drifts by a quarter for minutes at a time, so throughput
// and latency, the pipeline.* metrics, cannot hold a regression bound;
// they are reported as per-layer metrics from the untraced half of a
// traced run and printed, unbound, by every run. wal.fsyncs_per_push
// is per-layer because it is 0 wherever there is no WAL, and
// client.dials_per_batch because on sharded-relay it counts the shards
// a batch touches, which the ring's balance under each seed sets.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"bytes_per_push", "B"},
	{"frames_per_push", "count"},
	{"heap_p90_mb", "MB"},
	{"allocs_per_push", "count"},
}

var pipeline = []metricDef{
	{"pipeline.push_per_s", "1/s"},
	{"pipeline.push_p50_ms", "ms"},
	{"pipeline.push_p99_ms", "ms"},
	{"pipeline.cpu_us_per_op", "us"},
	{"pipeline.query_per_s", "1/s"},
	{"pipeline.query_p50_ms", "ms"},
	{"pipeline.query_p99_ms", "ms"},
}

var perLayer = append(append([]metricDef(nil), pipeline...), []metricDef{
	{"core.process_ns_per_item", "ns"},
	{"sketch.open_ns", "ns"},
	{"sketch.open_allocs", "count"},
	{"sketch.merge_ns", "ns"},
	{"sketch.envelope_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.ack_ns", "ns"},
	{"client.dials_per_batch", "count"},
	{"wal.append_ns", "ns"},
	{"wal.replay_us_per_record", "us"},
	{"wal.fsyncs_per_push", "count"},
	{"wal.bytes_per_push", "B"},
	{"wal.recover_us_per_record", "us"},
	{"server.absorb_ns", "ns"},
	{"server.merge_ns_mean", "ns"},
	{"server.expr_ns", "ns"},
	{"server.expr_allocs", "count"},
	{"server.rejected", "count"},
	{"relay.flush_ms", "ms"},
	{"relay.groups_per_flush", "count"},
	{"relay.bytes_per_push", "B"},
	{"relay.converge_ms", "ms"},
	{"cluster.route_ns", "ns"},
	{"cluster.groups_foreign", "count"},
	{"proc.cpu_util", "cores"},
	{"proc.gc_per_s", "1/s"},
	{"ledger.push_path_us", "us"},
	{"ledger.attributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}...)

// result is one workload run's outcome.
type result struct {
	workload          string
	wrong             error // the oracle's objection; nil when correct
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int // sample count behind each percentile
	spans             []span
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed every input derives from")
		seconds = flag.Float64("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
		spans   = flag.String("spans", "", "with --trace 1, write every span to FILE as JSON lines")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, spansPath string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	selected := workloads
	if name != "all" {
		w, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	cfg := runConfig{
		seed:          seed,
		warmup:        defaultWarmup,
		window:        time.Duration(seconds * float64(time.Second)),
		setupReps:     defaultSetupReps,
		setupTime:     defaultSetupTime,
		ledgerRecords: ledgerRecords,
		trace:         trace == 1,
	}
	var spanOut *bufio.Writer
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spanOut = bufio.NewWriter(f)
	}

	var wrong []error
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(os.Stdout, cfg.trace); err != nil {
			return err
		}
		if spanOut != nil {
			if err := writeSpans(spanOut, w.name, res.spans); err != nil {
				return err
			}
		}
		if res.wrong != nil {
			wrong = append(wrong, fmt.Errorf("%s: oracle mismatch: %w", w.name, res.wrong))
		}
	}
	if spanOut != nil {
		if err := spanOut.Flush(); err != nil {
			return err
		}
	}
	return errors.Join(wrong...)
}

// runWorkload sets up, loads, checks and (traced) ledgers one workload.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	s, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	epoch := time.Now() // every span of the run is timed from here
	res, err := measure(w, cfg, s.rig, s.pool, epoch)
	if cerr := s.rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// Set up as often again after the load. Host speed drifts over
	// seconds, so reps a window apart give a steadier median than the
	// same number of reps back to back.
	again, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := again.rig.close(); err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(append(s.times, again.times...)).Seconds()
	res.metrics["core.process_ns_per_item"] = ratio(float64(s.process), float64(s.items))

	if cfg.trace {
		tr := newTracer(epoch, clients+1)
		layers, err := ledgerPass(w, cfg, s.pool, res.oracle, tr)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		for k, v := range layers {
			res.metrics[k] = v
		}
		res.metrics["ledger.attributed_frac"] = ratio(res.metrics["ledger.push_path_us"],
			res.metrics["pipeline.push_p50_ms"]*1e3/float64(w.batch))
		res.spans = append(res.spans, tr.spans...)
	}
	return &res.result, nil
}

// setup is a booted topology with the pool of site records it is fed,
// and how long each set-up rep took.
type setup struct {
	rig     *rig
	pool    []client.Record
	process time.Duration // Sketch.Process time of the last rep's fixture
	items   int
	times   []time.Duration
}

// setUp builds the fixture and boots the topology until it has done so
// cfg.setupReps times and for cfg.setupTime in all, so a set-up of a
// few milliseconds still yields a steady median. The last rep's rig is
// left running.
func setUp(w *workload, cfg runConfig) (*setup, error) {
	s := &setup{}
	var total time.Duration
	for len(s.times) < cfg.setupReps || total < cfg.setupTime {
		if s.rig != nil {
			if err := s.rig.close(); err != nil {
				return nil, err
			}
			s.rig = nil
		}
		// Every rep starts from a collected heap, so no rep pays for the
		// garbage of the rep or the load before it.
		runtime.GC()
		start := time.Now()
		var err error
		if s.pool, s.process, s.items, err = w.fixture(cfg.seed); err != nil {
			return nil, err
		}
		if s.rig, err = boot(w, cfg.seed); err != nil {
			return nil, err
		}
		s.times = append(s.times, time.Since(start))
		total += s.times[len(s.times)-1]
	}
	return s, nil
}

// measured is a result plus the oracle the traced ledger reuses.
type measured struct {
	result
	oracle *oracle
}

// measure runs the closed loop on a booted rig, settles the topology and
// judges it against the oracle, which is built only after the load so
// its memory stays out of heap_p90_mb.
func measure(w *workload, cfg runConfig, r *rig, pool []client.Record, epoch time.Time) (*measured, error) {
	runtime.GC()
	win, err := drive(r, pool, w.batch, cfg, epoch)
	if err != nil {
		return nil, err
	}
	st, err := r.settle()
	if err != nil {
		return nil, err
	}
	got, err := st.judgedSrv.Snapshots()
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(w, pool)
	if err != nil {
		return nil, err
	}
	if cfg.tamper != nil {
		cfg.tamper(orc)
	}
	res := &measured{oracle: orc, result: result{
		workload: w.name,
		metrics:  map[string]float64{},
		samples:  map[string]int{},
	}}
	res.wrong = errors.Join(diffSnapshots(got, orc.snaps), win.mismatch)
	if w.queries {
		if win.answer == nil {
			return nil, errors.New("no expression query was answered in the window")
		}
		res.wrong = errors.Join(res.wrong, diffAnswer(win.answer, orc.answer))
	}
	if st.foreign > 0 {
		res.wrong = errors.Join(res.wrong, fmt.Errorf("%d groups sit on a shard the ring does not assign them to", st.foreign))
	}
	if win.firstErr != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: first failed request: %v\n", w.name, win.firstErr)
	}

	var acked, bytes, okQueries float64
	for _, c := range win.pushes {
		acked += float64(c.acked)
		bytes += float64(c.bytes)
		res.attempted += int64(c.records)
		res.failed += int64(c.records - c.acked)
	}
	for _, c := range win.queries {
		res.attempted++
		if c.failed {
			res.failed++
		} else {
			okQueries++
		}
	}
	b, a := win.before, win.after
	wall := a.at.Sub(b.at).Seconds()
	cpu := (a.cpu - b.cpu).Seconds()
	exprQueries := float64(a.exprQueries - b.exprQueries)
	m := res.metrics
	m["bytes_per_push"] = ratio(bytes, acked)
	m["heap_p90_mb"] = float64(win.heapP90) / 1e6
	m["allocs_per_push"] = ratio(float64(a.allocs-b.allocs), acked)

	// A traced run takes throughput and latency from its untraced slices
	// and compares them with the traced ones for the tracing overhead.
	pushes, queries, secs := win.pushes, win.queries, cfg.window.Seconds()
	if cfg.trace {
		pushes, queries, secs = inSlices(pushes, cfg.window, 0), inSlices(queries, cfg.window, 0), secs/2
		m["trace.overhead_frac"] = 1 - ratio(ackedIn(inSlices(win.pushes, cfg.window, 1)), ackedIn(pushes))
	}
	pushLat, queryLat := latencies(pushes), latencies(queries)
	m["pipeline.push_per_s"] = ackedIn(pushes) / secs
	m["pipeline.push_p50_ms"] = percentileMs(pushLat, 0.50)
	m["pipeline.push_p99_ms"] = percentileMs(pushLat, 0.99)
	m["pipeline.cpu_us_per_op"] = ratio(cpu*1e6, acked+okQueries)
	m["pipeline.query_per_s"] = float64(len(queries)) / secs
	m["pipeline.query_p50_ms"] = percentileMs(queryLat, 0.50)
	m["pipeline.query_p99_ms"] = percentileMs(queryLat, 0.99)
	for _, p := range []string{"push_p50_ms", "push_p99_ms"} {
		res.samples["pipeline."+p] = len(pushLat)
	}
	for _, p := range []string{"query_p50_ms", "query_p99_ms"} {
		res.samples["pipeline."+p] = len(queryLat)
	}

	// Every expression query reads one frame on its own connection.
	m["frames_per_push"] = ratio(float64(a.frames-b.frames)-exprQueries, acked)
	m["client.dials_per_batch"] = ratio(float64(a.conns-b.conns)-exprQueries, float64(len(win.pushes)))
	m["wal.fsyncs_per_push"] = ratio(float64(a.walFsyncs-b.walFsyncs), acked)
	m["wal.bytes_per_push"] = ratio(float64(a.walBytes-b.walBytes), acked)
	m["wal.recover_us_per_record"] = ratio(float64(st.recover)/1e3, float64(st.replayed))
	m["server.merge_ns_mean"] = ratio(float64(a.mergeNs-b.mergeNs), float64(a.merges-b.merges))
	m["server.rejected"] = float64(a.rejected - b.rejected)
	m["relay.groups_per_flush"] = ratio(float64(a.relayGroups-b.relayGroups), float64(a.relayFlushes-b.relayFlushes))
	m["relay.bytes_per_push"] = ratio(float64(a.relayByte-b.relayByte), acked)
	m["relay.converge_ms"] = float64(st.converge) / 1e6
	m["cluster.groups_foreign"] = float64(st.foreign)
	m["proc.cpu_util"] = ratio(cpu, wall)
	m["proc.gc_per_s"] = ratio(float64(a.gcs-b.gcs), wall)
	res.spans = win.spans
	return res, nil
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, then the JSON result line, which
// carries the end-to-end metrics (untraced) or the per-layer ones
// (traced). An untraced run also prints the pipeline.* metrics.
func (r *result) print(out io.Writer, trace bool) error {
	defs, shown := endToEnd, append(append([]metricDef(nil), endToEnd...), pipeline...)
	if trace {
		defs, shown = perLayer, perLayer
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: r.wrong == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range shown {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s has no finite value (%v)", r.workload, d.name, v)
		}
		samples := ""
		if n, ok := r.samples[d.name]; ok {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(out, "%-14s %-26s %14.6g %s%s\n", r.workload, d.name, v, d.unit, samples)
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricJSON{Value: r.metrics[d.name], Unit: d.unit}
	}
	verdict := "oracle: ok, bit-identical"
	if r.wrong != nil {
		verdict = "oracle: MISMATCH: " + r.wrong.Error()
	}
	fmt.Fprintf(out, "%-14s %s; %d attempted, %d failed\n", r.workload, verdict, r.attempted, r.failed)
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

// writeSpans appends spans as JSON lines tagged with the workload.
func writeSpans(out io.Writer, workload string, spans []span) error {
	enc := json.NewEncoder(out)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return err
		}
	}
	return nil
}
