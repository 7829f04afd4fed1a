package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/hashing"
	"repro/internal/wire"
)

// call is one closed-loop request: a batch push or an expression query.
type call struct {
	start   time.Duration // since the window opened; negative in warm-up
	dur     time.Duration
	records int   // envelopes sent; 0 for a query
	acked   int   // envelopes acked
	bytes   int64 // wire bytes (frame header + payload) of the acked envelopes
	failed  bool
}

// feeder is one client's push order: endless cycles over its own
// seeded permutation of the pool, cut into batches.
type feeder struct {
	pool  []client.Record
	batch int
	order []int
	pos   int
	idx   []int
	recs  []client.Record
}

func newFeeder(pool []client.Record, batch int, rng *hashing.Xoshiro256) *feeder {
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return &feeder{pool: pool, batch: batch, order: order}
}

// next returns the next batch and the pool index of each record.
func (f *feeder) next() ([]client.Record, []int) {
	f.recs, f.idx = f.recs[:0], f.idx[:0]
	for len(f.recs) < f.batch {
		i := f.order[f.pos]
		f.pos = (f.pos + 1) % len(f.order)
		f.idx = append(f.idx, i)
		f.recs = append(f.recs, f.pool[i])
	}
	return f.recs, f.idx
}

// wireBytes is what one record costs on the wire: the frame header
// plus the push payload the client sends for it.
func wireBytes(r client.Record) (int64, error) {
	if r.Stream == "" {
		return int64(wire.HeaderSize + len(r.Envelope)), nil
	}
	p, err := wire.EncodePushNamed(r.Stream, r.Envelope)
	return int64(wire.HeaderSize + len(p)), err
}

// counters is a point-in-time reading of the process and of every
// coordinator's Stats.
type counters struct {
	at     time.Time
	cpu    time.Duration // user + system CPU of the whole process
	gcs    uint64
	allocs uint64 // heap objects allocated by the whole process

	conns, frames, exprQueries, rejected int64
	merges, mergeNs                      int64
	relayFlushes, relayGroups, relayByte int64
	walFsyncs, walBytes                  int64
}

func (r *rig) sample() counters {
	c := counters{at: time.Now(), cpu: processCPU(),
		gcs:    readUint64Metric("/gc/cycles/total:gc-cycles"),
		allocs: readUint64Metric("/gc/heap/allocs:objects")}
	for _, s := range r.coords {
		st := s.Stats()
		c.conns += st.ConnsAccepted
		c.frames += st.FramesRead
		c.exprQueries += st.ExprQueries
		c.rejected += st.Rejected
		c.merges += st.Merges
		c.mergeNs += st.MergeNanosTotal
		if rs := st.Relay; rs != nil {
			c.relayFlushes += rs.Flushes
			c.relayGroups += rs.GroupsPushed
			c.relayByte += rs.BytesPushed
		}
		if ws := st.WAL; ws != nil {
			c.walFsyncs += ws.Fsyncs
			c.walBytes += ws.AppendedBytes
		}
	}
	if r.cluster != nil {
		c.rejected += r.cluster.Parent.Stats().Rejected
	}
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint64Metric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// window is what the measured part of a closed-loop run recorded.
type window struct {
	pushes, queries []call
	before, after   counters
	heapP90         uint64
	spans           []span // root spans of the traced slices
	// answer is the window's first expression answer; mismatch reports a
	// later answer that differed from it.
	answer             *wire.ExprResult
	firstErr, mismatch error
}

// load is one closed-loop run in progress. Each client goroutine writes
// only its own slot of calls, errs and tracers; the one query client
// alone writes answer and mismatch.
type load struct {
	open, end time.Time
	trace     bool
	bytes     []int64 // wire bytes per pool record
	calls     [][]call
	errs      []error
	tracers   []*tracer
	answer    *wire.ExprResult
	mismatch  error
}

// traceSlices is how many alternating untraced/traced slices a traced
// window is cut into, so both push rates see the same host conditions.
const traceSlices = 10

// traced reports whether a request started at t falls in a traced slice.
func (l *load) traced(t time.Time) bool {
	return l.trace && !t.Before(l.open) && slice(t.Sub(l.open), l.end.Sub(l.open))%2 == 1
}

// slice numbers the tenth of the window that offset d falls in.
func slice(d, window time.Duration) int {
	return int(d * traceSlices / window)
}

func (l *load) pusher(id int, push func([]client.Record) (int, error), f *feeder) {
	for {
		s := time.Now()
		if !s.Before(l.end) {
			return
		}
		recs, idx := f.next()
		n, err := push(recs)
		e := time.Now()
		if err != nil && l.errs[id] == nil {
			l.errs[id] = err
		}
		if l.traced(s) {
			l.tracers[id].root("client.PushBatchNamed", s, e)
		}
		if s.Before(l.open) {
			continue
		}
		c := call{start: s.Sub(l.open), dur: e.Sub(s), records: len(recs), acked: n, failed: err != nil}
		for _, i := range idx[:n] {
			c.bytes += l.bytes[i]
		}
		l.calls[id] = append(l.calls[id], c)
	}
}

// querier loops one expression query. The groups sit at their merge
// fixpoint throughout the window, so every answer must equal the first;
// the caller checks that one against the oracle.
func (l *load) querier(id int, query func() (*wire.ExprResult, error)) {
	for {
		s := time.Now()
		if !s.Before(l.end) {
			return
		}
		res, err := query()
		e := time.Now()
		if err != nil && l.errs[id] == nil {
			l.errs[id] = err
		}
		if l.traced(s) {
			l.tracers[id].root("client.QueryExpr", s, e)
		}
		if s.Before(l.open) {
			continue
		}
		switch {
		case err != nil:
		case l.answer == nil:
			l.answer = res
		case l.mismatch == nil:
			l.mismatch = diffAnswer(res, l.answer)
		}
		l.calls[id] = append(l.calls[id], call{start: s.Sub(l.open), dur: e.Sub(s), failed: err != nil})
	}
}

// drive runs the closed loop on r: the pool pass (every pool envelope
// pushed once, in order, split across the pushers), warm-up until
// warmup has passed, then the measured window. Every client sends its
// next request only once the previous one returned.
func drive(r *rig, pool []client.Record, batch int, cfg runConfig, epoch time.Time) (*window, error) {
	l := &load{
		trace:   cfg.trace,
		bytes:   make([]int64, len(pool)),
		calls:   make([][]call, clients),
		errs:    make([]error, clients),
		tracers: make([]*tracer, clients),
	}
	for i, rec := range pool {
		var err error
		if l.bytes[i], err = wireBytes(rec); err != nil {
			return nil, err
		}
	}
	for i := range l.tracers {
		l.tracers[i] = newTracer(epoch, uint64(i+1))
	}

	warmStart := time.Now()
	var wg sync.WaitGroup
	passErrs := make([]error, len(r.pushers))
	for id, push := range r.pushers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := id * batch; k < len(pool) && passErrs[id] == nil; k += len(r.pushers) * batch {
				recs := pool[k:min(k+batch, len(pool))]
				if n, err := push(recs); err != nil || n != len(recs) {
					passErrs[id] = fmt.Errorf("pool pass: %d of %d envelopes acked: %w", n, len(recs), err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(passErrs...); err != nil {
		return nil, err
	}

	l.open = time.Now()
	if rest := cfg.warmup - l.open.Sub(warmStart); rest > 0 {
		l.open = l.open.Add(rest)
	}
	l.end = l.open.Add(cfg.window)
	rng := hashing.NewXoshiro256(cfg.seed ^ 0x5eed)
	for id, push := range r.pushers {
		f := newFeeder(pool, batch, rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.pusher(id, push, f)
		}()
	}
	if r.query != nil {
		id := len(r.pushers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.querier(id, r.query)
		}()
	}

	w := &window{}
	time.Sleep(time.Until(l.open))
	w.before = r.sample()
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go func() { heapDone <- sampleHeapP90(stopHeap) }()
	wg.Wait()
	close(stopHeap)
	w.heapP90 = <-heapDone
	w.after = r.sample()

	for id, calls := range l.calls {
		if r.query != nil && id == len(r.pushers) {
			w.queries = calls
		} else {
			w.pushes = append(w.pushes, calls...)
		}
	}
	for _, t := range l.tracers {
		w.spans = append(w.spans, t.spans...)
	}
	w.firstErr = errors.Join(l.errs...)
	w.answer, w.mismatch = l.answer, l.mismatch
	return w, nil
}

// sampleHeapP90 reads the heap-object bytes at 10 Hz until stop closes
// and returns the 90th percentile of the readings: the level the heap
// tops only a tenth of the time. Unlike the maximum, it does not hinge
// on where one garbage collection happened to fall between samples.
func sampleHeapP90(stop <-chan struct{}) uint64 {
	const name = "/memory/classes/heap/objects:bytes"
	samples := []uint64{readUint64Metric(name)}
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			return samples[len(samples)*9/10]
		case <-t.C:
			samples = append(samples, readUint64Metric(name))
		}
	}
}

// inSlices returns the calls that started in a slice of the given
// parity: 1 for the traced slices of a traced run, 0 for the untraced.
func inSlices(calls []call, window time.Duration, parity int) []call {
	var out []call
	for _, c := range calls {
		if slice(c.start, window)%2 == parity {
			out = append(out, c)
		}
	}
	return out
}

func ackedIn(calls []call) float64 {
	var n float64
	for _, c := range calls {
		n += float64(c.acked)
	}
	return n
}

// latencies returns the sorted durations of calls.
func latencies(calls []call) []time.Duration {
	d := make([]time.Duration, len(calls))
	for i, c := range calls {
		d[i] = c.dur
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// percentileMs is the nearest-rank q-quantile of sorted, in ms.
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return float64(sorted[max(i, 0)]) / 1e6
}
