package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/failpoint"
	"repro/internal/sketch"
)

// RelayConfig turns a coordinator into a relay: a mid-tier shard that
// periodically pushes each merge group's merged state upstream as a
// self-describing envelope — indistinguishable, to the parent, from a
// site that happened to observe the whole union of this shard's
// sites. No new wire frames are involved: relaying IS pushing.
//
// Delivery is at-least-once by design. A group stays dirty until a
// flush round gets its envelope acked; lost acks, retries, and
// overlapping flushes can all hand the parent duplicate or stale
// envelopes, and the parent's commutative, associative, idempotent
// merge collapses every such schedule into the same fixpoint — the
// state a single coordinator absorbing every site directly would
// hold. The distnet cluster suite pins that equivalence byte for
// byte.
type RelayConfig struct {
	// Upstream is the parent coordinator's TCP address.
	Upstream string
	// FlushInterval is the relay timer period; <= 0 selects
	// DefaultRelayInterval. Every tick pushes all dirty groups.
	FlushInterval time.Duration
	// FlushAfter, when > 0, additionally triggers a flush as soon as
	// any group accumulates that many absorbs since its last relayed
	// envelope — the latency valve for hot groups between ticks.
	FlushAfter int64
	// Attempts, BackoffBase, and IOTimeout tune the upstream client;
	// zero values take the client defaults.
	Attempts    int
	BackoffBase time.Duration
	IOTimeout   time.Duration
	// JitterSeed seeds the upstream client's backoff jitter (0 derives
	// one from the clock, like any client).
	JitterSeed int64
}

// DefaultRelayInterval is the relay flush period when RelayConfig
// leaves it zero.
const DefaultRelayInterval = time.Second

// relayState is the running relay: the upstream client, the flush
// rounds and their timer's nudge, and the /statsz counters.
type relayState struct {
	cfg      RelayConfig
	upstream *client.Client
	flushNow chan struct{}
	round

	flushes     atomic.Int64
	groupsSent  atomic.Int64
	bytesSent   atomic.Int64
	pushErrors  atomic.Int64
	lastErr     atomic.Value // string
	drainFlush  atomic.Bool
	drainGroups atomic.Int64
}

// newRelayState builds the relay for cfg.
func newRelayState(cfg RelayConfig) *relayState {
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultRelayInterval
	}
	return &relayState{
		cfg: cfg,
		upstream: client.New(client.Config{
			Addr:        cfg.Upstream,
			Attempts:    cfg.Attempts,
			BackoffBase: cfg.BackoffBase,
			IOTimeout:   cfg.IOTimeout,
			JitterSeed:  cfg.JitterSeed,
		}),
		flushNow: make(chan struct{}, 1),
		round:    round{token: make(chan struct{}, 1)},
	}
}

// relayDirty is called at the end of a successful absorb: it nudges
// the flush loop when the group just crossed the threshold.
//
// locked: mu
func (g *group) relayDirty(r *relayState) bool {
	return r.cfg.FlushAfter > 0 && g.pendingRelay >= r.cfg.FlushAfter
}

// FlushRelay pushes every dirty group's envelope upstream over one
// batched connection and returns how many groups were durably acked.
// It is what the relay timer runs each tick and what tests call to
// make relay timing deterministic. A call that finds a round in
// progress returns (0, nil) at once (see round); Shutdown's drain
// flush waits instead.
func (s *Server) FlushRelay() (groups int, err error) {
	r := s.relay
	if r == nil {
		return 0, fmt.Errorf("server: not a relay (no RelayConfig)")
	}
	return r.try(s.flushRound)
}

// flushRound runs one flush round; the caller holds the round token.
func (s *Server) flushRound() (groups int, err error) {
	r := s.relay
	if ferr := failpoint.Inject(failpoint.ServerRelayFlush); ferr != nil {
		// Chaos hook: the whole cycle fails before any snapshot — every
		// group stays dirty and the next cycle retries.
		r.pushErrors.Add(1)
		r.lastErr.Store(ferr.Error())
		return 0, fmt.Errorf("server: relay flush: %w", ferr)
	}
	r.flushes.Add(1)

	type dirtyGroup struct {
		g        *group
		envelope []byte
		pending  int64
	}
	s.mu.Lock()
	all := s.groupsLocked()
	s.mu.Unlock()

	var dirty []dirtyGroup
	for _, g := range all {
		g.mu.Lock()
		if g.pendingRelay == 0 {
			g.mu.Unlock()
			continue
		}
		if ferr := failpoint.Inject(failpoint.ServerRelayPush); ferr != nil {
			// Chaos hook: this group's push fails before its snapshot
			// leaves the lock — it stays dirty for the next round.
			g.mu.Unlock()
			r.pushErrors.Add(1)
			r.lastErr.Store(ferr.Error())
			continue
		}
		env, merr := sketch.Envelope(g.sk)
		pending := g.pendingRelay
		g.mu.Unlock()
		if merr != nil {
			r.pushErrors.Add(1)
			r.lastErr.Store(merr.Error())
			continue
		}
		dirty = append(dirty, dirtyGroup{g: g, envelope: env, pending: pending})
	}
	if len(dirty) == 0 {
		return 0, nil
	}

	// Stream names ride upstream with the envelopes: a named group on
	// this shard must land in the parent's same-named group, or the
	// tier would silently collapse streams into the default.
	records := make([]client.Record, len(dirty))
	for i, d := range dirty {
		records[i] = client.Record{Stream: d.g.key.Stream, Envelope: d.envelope}
	}
	pushed, perr := r.upstream.PushBatchNamed(records)
	// Envelopes [0, pushed) were acked upstream: clear exactly the
	// dirt each snapshot covered, so absorbs that raced the flush stay
	// pending for the next round.
	var bytes int64
	for _, d := range dirty[:pushed] {
		d.g.mu.Lock()
		d.g.pendingRelay -= d.pending
		d.g.relayPushes++
		d.g.mu.Unlock()
		bytes += int64(len(d.envelope))
	}
	r.groupsSent.Add(int64(pushed))
	r.bytesSent.Add(bytes)
	if perr != nil {
		r.pushErrors.Add(1)
		r.lastErr.Store(perr.Error())
		return pushed, fmt.Errorf("server: relay flush delivered %d of %d groups: %w", pushed, len(dirty), perr)
	}
	return pushed, nil
}

// drainRelay is Shutdown's final flush: whatever is dirty when the
// last connection drains is pushed upstream before the daemon exits,
// so a cleanly-stopped shard leaves nothing behind. Its counters are
// surfaced separately in /statsz so operators can tell a drain flush
// happened.
func (s *Server) drainRelay() {
	s.relay.drainFlush.Store(true)
	// Wait out a round still in flight (an explicit FlushRelay outlives
	// the timer loop): its snapshot may predate the last absorbs, and
	// no later tick will deliver them.
	n, err := s.relay.wait(s.flushRound)
	s.relay.drainGroups.Store(int64(n))
	if err != nil {
		s.logf("unionstreamd: relay drain flush: %v", err)
		return
	}
	s.logf("unionstreamd: relay drain flushed %d groups upstream", n)
}
