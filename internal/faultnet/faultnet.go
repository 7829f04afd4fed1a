// Package faultnet is a deterministic, in-process TCP fault proxy for
// chaos-testing the networked referee: it sits between site clients
// and a unionstreamd coordinator on loopback and damages traffic
// according to a scripted, seed-reproducible Schedule — rejecting
// connections, delaying, truncating or bit-flipping frames,
// black-holing acks, and replaying (duplicating) delivered messages.
//
// The point is the pairing of faults with the repository's core
// algebra: coordinated sketch merges are idempotent and commutative,
// so duplicated and reordered deliveries must not change the referee's
// estimates, and a retrying client pushed through any survivable fault
// schedule must converge to the bit-identical fault-free result. The
// chaos suites in internal/server, internal/client and internal/distnet
// assert exactly that, replaying the same seed twice and comparing
// both the final merged state and the proxy's fault trace.
//
// With WithAccountant, every byte forwarded toward the coordinator is
// recorded in a distsim.ByteAccountant, keeping chaos runs comparable
// with the in-process simulator's communication accounting.
package faultnet

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/distsim"
	"repro/internal/wire"
)

// TraceEvent records what the proxy did to one connection. Traces are
// deterministic for serial workloads: byte counts depend only on the
// frames sent and the plan applied, never on chunking or timing.
type TraceEvent struct {
	// Conn is the connection's accept-order index.
	Conn int
	// Plan is the fault plan that was applied.
	Plan Plan
	// UpBytes and DownBytes count bytes forwarded client→server and
	// server→client (after faults: a black-holed direction forwards 0).
	UpBytes, DownBytes int64
	// ReplayBytes counts bytes re-sent by a Replay plan.
	ReplayBytes int64
	// Err notes a proxy-side failure (upstream dial error), if any.
	Err string
}

// String renders the event for trace comparison.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("conn %d [%s] up=%d down=%d", e.Conn, e.Plan, e.UpBytes, e.DownBytes)
	if e.Plan.Replay {
		s += fmt.Sprintf(" replayed=%d", e.ReplayBytes)
	}
	if e.Err != "" {
		s += " err=" + e.Err
	}
	return s
}

// Proxy is one listening fault injector. Create with New, point
// clients at Addr, stop with Close.
type Proxy struct {
	target string
	sched  Schedule
	acct   *distsim.ByteAccountant // optional; records each connection's forwarded up-bytes

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex // guards: trace, conns, closed
	trace  []TraceEvent
	conns  map[net.Conn]struct{}
	closed bool
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithAccountant records each connection's forwarded client→server
// bytes in acct as one message, reusing the distributed simulator's
// byte accounting.
func WithAccountant(acct *distsim.ByteAccountant) Option {
	return func(p *Proxy) { p.acct = acct }
}

// New starts a proxy on an ephemeral loopback port forwarding to
// target, applying sched's plan to each accepted connection in accept
// order.
func New(target string, sched Schedule, opts ...Option) (*Proxy, error) {
	if sched == nil {
		sched = Script(nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{target: target, sched: sched, ln: ln, conns: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(p)
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, severs in-flight connections, and waits for
// every handler to finish. It is idempotent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
	return nil
}

// Trace returns a copy of the per-connection fault record, ordered by
// connection index.
func (p *Proxy) Trace() []TraceEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TraceEvent, len(p.trace))
	copy(out, p.trace)
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

// TraceString renders the full trace, one event per line — the value
// chaos tests compare across replays of the same seed.
func (p *Proxy) TraceString() string {
	var b strings.Builder
	for _, e := range p.Trace() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for id := 0; ; id++ {
		conn, err := p.ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		plan := p.sched.PlanFor(id)
		if plan.Reject {
			conn.Close()
			p.record(TraceEvent{Conn: id, Plan: plan})
			continue
		}
		p.track(conn, true)
		p.wg.Add(1)
		go p.handle(id, conn, plan)
	}
}

func (p *Proxy) track(c net.Conn, add bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if add {
		if p.closed {
			// Lost the race with Close: refuse late connections.
			c.Close()
			return
		}
		p.conns[c] = struct{}{}
	} else {
		delete(p.conns, c)
	}
}

func (p *Proxy) record(e TraceEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = append(p.trace, e)
}

// handle proxies one client connection through its fault plan.
func (p *Proxy) handle(id int, client net.Conn, plan Plan) {
	defer p.wg.Done()
	defer p.track(client, false)
	ev := TraceEvent{Conn: id, Plan: plan}

	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		client.Close()
		ev.Err = "upstream dial failed"
		p.record(ev)
		return
	}
	p.track(upstream, true)
	defer p.track(upstream, false)

	// Record the client's original bytes (pre-fault) when the plan
	// replays them as a duplicate delivery.
	var tee *bytes.Buffer
	if plan.Replay {
		tee = &bytes.Buffer{}
	}

	upDone := make(chan int64, 1)
	go func() {
		n := pump(upstream, client, plan.Up, tee)
		closeWrite(upstream) // propagate the client's EOF to the server
		upDone <- n
	}()
	ev.DownBytes = pump(client, upstream, plan.Down, nil)
	closeWrite(client)
	ev.UpBytes = <-upDone
	client.Close()
	upstream.Close()

	if plan.Replay && tee != nil && tee.Len() > 0 {
		ev.ReplayBytes = p.replay(tee.Bytes())
	}
	if p.acct != nil {
		p.acct.Record(int(ev.UpBytes))
	}
	p.record(ev)
}

// replay re-delivers recorded client bytes on a fresh upstream
// connection — a duplicated message the coordinator must absorb
// idempotently — and reads (and discards) one reply frame.
func (p *Proxy) replay(b []byte) int64 {
	conn, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return 0
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(b); err != nil {
		return 0
	}
	// Wait for the coordinator's ack so the duplicate is fully
	// absorbed before the proxy reports the connection done; the
	// reply's content is irrelevant.
	_, _, _ = wire.ReadFrame(conn, 0)
	return int64(len(b))
}

// pump forwards src→dst applying pp, returning the bytes actually
// forwarded. It returns when src is exhausted, dst refuses a write, or
// a Truncate cut fires (which hard-closes both ends).
func pump(dst, src net.Conn, pp PathPlan, tee *bytes.Buffer) int64 {
	if pp.Kind == Delay && pp.Wait > 0 {
		time.Sleep(pp.Wait)
	}
	var fwd int64
	buf := make([]byte, 32*1024)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if tee != nil {
				tee.Write(chunk)
			}
			switch pp.Kind {
			case BlackHole:
				// Swallow: drain src so its writer never blocks, but
				// forward nothing.
			case Truncate:
				keep := int64(pp.AfterBytes) - fwd
				if keep > int64(n) {
					keep = int64(n)
				}
				if keep > 0 {
					if _, werr := dst.Write(chunk[:keep]); werr != nil {
						return fwd
					}
					fwd += keep
				}
				if fwd >= int64(pp.AfterBytes) {
					// The cut: both directions die mid-frame.
					src.Close()
					dst.Close()
					return fwd
				}
			default:
				if pp.Kind == BitFlip {
					if idx := int64(pp.AfterBytes) - fwd; idx >= 0 && idx < int64(n) {
						chunk[idx] ^= 0x01
					}
				}
				if _, werr := dst.Write(chunk); werr != nil {
					return fwd
				}
				fwd += int64(n)
			}
		}
		if rerr != nil {
			return fwd
		}
	}
}

// closeWrite half-closes c's write side when possible (propagating EOF
// while the other direction keeps flowing), falling back to a full
// close.
func closeWrite(c net.Conn) {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.(closeWriter); ok {
		cw.CloseWrite()
		return
	}
	c.Close()
}
