// Package server implements unionstreamd's coordinator: the paper's
// referee as a long-running network daemon. Sites connect over TCP,
// push their one-shot sketch messages (internal/sketch envelopes,
// framed by internal/wire), and the daemon routes each through the
// kind registry and merges it into its (stream, kind, config digest)
// group — pushes may name the logical stream they belong to
// (wire.MsgPushNamed), and unnamed pushes land in the default stream
// (""). Groups answer union queries — distinct counts,
// duplicate-insensitive sums, and predicate counts, each subject to
// the kind's capabilities — exactly as the in-process simulator does,
// but across machines and across every registered sketch backend.
// Across streams the coordinator answers set-expression queries
// (wire.MsgQueryExpr): unions, intersections, differences, and
// Jaccard similarity over named streams, evaluated recursively
// against the coordinated groups (see expr.go).
//
// # Concurrency model
//
// Each accepted connection gets one reader goroutine, which absorbs
// (stages and merges) each push itself and then writes its ack: a
// connection runs one absorb at a time and its acks stay in frame
// order, while different connections absorb in parallel up to
// GOMAXPROCS. Each merge group is guarded by its own mutex, held only
// to merge an envelope already staged (sketch.Stage). Because
// coordinated sketches merge commutatively and associatively, the
// group state after N concurrent absorbs is bit-identical to absorbing
// the same messages serially in any order — the server tests assert
// this byte-for-byte under the race detector.
//
// # Shutdown
//
// Shutdown stops the accept loop, wakes readers blocked between
// frames, and waits for every in-flight message to finish absorbing
// and be acked. cmd/unionstreamd wires this to SIGTERM.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// Config parameterizes a Server. The zero value listens with default
// limits and accepts sketches of any registered kind and any
// coordination seed.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe (e.g.
	// ":7600"). Ignored by Serve, which takes a listener.
	Addr string
	// MaxPayload bounds accepted frame payloads in bytes; 0 selects
	// wire.DefaultMaxPayload.
	MaxPayload uint32
	// RequireSeed, when non-nil, rejects pushes whose sketch seed
	// differs — a deployment where the fleet's coordination seed is
	// pinned and an uncoordinated site must hear a typed refusal, not
	// silently form its own group.
	RequireSeed *uint64
	// RequireKind, when non-empty, rejects pushes of any other sketch
	// backend (a registered kind name, e.g. "gt") with
	// AckKindMismatch — the backend analogue of RequireSeed.
	RequireKind string
	// Relay, when non-nil, runs this coordinator as a mid-tier shard
	// that periodically pushes each group's merged envelope to an
	// upstream parent coordinator (see RelayConfig). Shutdown flushes
	// every dirty group upstream before returning.
	Relay *RelayConfig
	// WAL, when non-nil, makes the coordinator durable: accepted
	// envelopes are logged before they are merged or acked, and a
	// rebooted coordinator replays the log to rebuild its groups
	// before the listener accepts (see WALConfig).
	WAL *WALConfig
	// Cluster, when non-nil, describes this coordinator's place in a
	// consistent-hash cluster for introspection: /statsz reports the
	// shard identity and, per group, the ring owner — the fastest way
	// to spot a mis-seeded ring pushing groups to the wrong shard.
	Cluster *ClusterInfo
	// Logf, when set, receives one line per lifecycle event and
	// per-connection error (e.g. log.Printf). Nil disables logging.
	Logf func(format string, args ...any)
}

// ClusterInfo is the coordinator's view of the consistent-hash ring
// it serves in. It is introspection-only data: the data path accepts
// whatever compatible envelopes arrive (idempotent merges make
// misrouted groups safe, just unbalanced), and /statsz surfaces
// ownership so the imbalance is visible.
type ClusterInfo struct {
	// Shard is this coordinator's ring index.
	Shard int
	// Ring is the deployment's shared ring (non-nil): /statsz reports
	// its size and seed, and each group's owner under it.
	Ring *cluster.Ring
}

// group is one mergeable family of sketches: everything pushed to one
// stream with the same kind and configuration digest.
type group struct {
	// key, name, and seed are fixed at creation (from the first
	// absorbed envelope) and readable without the lock.
	key  cluster.GroupKey
	name string
	seed uint64

	mu       sync.Mutex // guards: sk, absorbed, bytes, pendingRelay, relayPushes
	sk       sketch.Sketch
	absorbed int64
	bytes    int64
	// pendingRelay counts absorbs not yet covered by an acked upstream
	// envelope; relayPushes counts acked upstream pushes of this
	// group. Both are bookkeeping only, and only a relay coordinator
	// counts them.
	pendingRelay int64
	relayPushes  int64
}

// Server is the coordinator daemon. Create with New, start with
// ListenAndServe or Serve, stop with Shutdown.
type Server struct {
	cfg   Config
	quit  chan struct{}
	relay *relayState // nil unless cfg.Relay is set
	wal   *walState   // nil unless cfg.WAL is set

	connWG sync.WaitGroup

	mu       sync.Mutex // guards: groups, ln, conns, started, shutdown
	groups   map[cluster.GroupKey]*group
	ln       net.Listener
	conns    map[net.Conn]struct{}
	started  bool
	shutdown bool

	stats counters
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = wire.DefaultMaxPayload
	}
	s := &Server{
		cfg:    cfg,
		quit:   make(chan struct{}),
		groups: make(map[cluster.GroupKey]*group),
		conns:  make(map[net.Conn]struct{}),
	}
	if cfg.Relay != nil {
		s.relay = newRelayState(*cfg.Relay)
	}
	if cfg.WAL != nil {
		s.wal = &walState{cfg: *cfg.WAL}
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (or a fatal accept
// error). It owns ln and closes it on return. A durable coordinator
// (Config.WAL) replays its log here, before the first accept: sites
// only ever talk to a coordinator whose groups are fully rebuilt.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.ensureRecovered(); err != nil {
		// Refuse to serve rather than serve partial state.
		ln.Close()
		return err
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	if s.started {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve called twice")
	}
	s.started = true
	s.ln = ln
	s.mu.Unlock()

	if s.relay != nil {
		s.relay.wg.Add(1)
		go s.relayLoop()
		s.logf("unionstreamd: relaying merged groups to %s every %s",
			s.relay.cfg.Upstream, s.relay.cfg.FlushInterval)
	}
	if s.wal != nil {
		s.wal.wg.Add(1)
		go s.walLoop()
		s.logf("unionstreamd: logging accepted envelopes to %s (fsync %s)",
			s.wal.cfg.Dir, s.wal.cfg.Sync)
	}
	s.logf("unionstreamd: serving on %s (%d byte frame limit)", ln.Addr(), s.cfg.MaxPayload)

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil // Shutdown closed the listener.
			default:
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if ferr := failpoint.Inject(failpoint.ServerAccept); ferr != nil {
			// Chaos hook: the accept path fails after the kernel handed
			// us a socket — drop it and keep serving, as a transient
			// resource error would.
			s.logf("unionstreamd: accept failpoint: %v", ferr)
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.connsAccepted.Add(1)
		s.stats.activeConns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the bound listen address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: it stops accepting, wakes connection
// readers, and waits (bounded by ctx) for every in-flight message to
// be absorbed and acked. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	close(s.quit)
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake every reader blocked between frames; handlers treat a
	// deadline error after quit as a clean goodbye.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	started := s.started
	s.mu.Unlock()
	// Chaos hook: a fault at drain start must not prevent the drain
	// from completing — Shutdown has no failure path before ctx.
	if ferr := failpoint.Inject(failpoint.ServerDrain); ferr != nil {
		s.logf("unionstreamd: drain failpoint: %v", ferr)
	}
	s.logf("unionstreamd: shutting down, draining connections")

	drained := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	if s.relay != nil {
		// The relay timer stopped when quit closed; with every
		// connection drained (all absorbs acked), one final flush
		// pushes whatever is still dirty upstream — a cleanly-stopped
		// shard leaves nothing behind.
		s.relay.wg.Wait()
		if started {
			s.drainRelay()
		}
	}
	if w := s.wal; w != nil && w.recovered.Load() {
		// With every absorb drained and acked, one final snapshot
		// captures the groups and prunes the log, so the next boot
		// replays a snapshot instead of the whole history.
		w.wg.Wait()
		if _, serr := s.SnapshotWAL(); serr != nil {
			s.logf("unionstreamd: shutdown wal snapshot: %v", serr)
		}
		if cerr := w.log.Close(); cerr != nil {
			s.logf("unionstreamd: shutdown wal close: %v", cerr)
		}
	}
	s.logf("unionstreamd: shutdown complete (%d sketches absorbed)", s.stats.absorbed.Load())
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.stats.activeConns.Add(-1)
		s.connWG.Done()
	}()
	// One reader per connection: every frame is read into the buffer
	// the connection's largest frame grew, so a payload is valid only
	// until the next read. Nothing below keeps one that long: an opened
	// sketch holds no reference to its envelope (sketchtest's
	// open-does-not-alias), and the log writes a frame out before the
	// push is acked.
	fr := wire.NewReader(conn, s.cfg.MaxPayload)
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			switch {
			case err == io.EOF:
				return // site hung up cleanly between frames
			case s.quitting() || isTimeout(err):
				return // shutdown woke us
			case errors.Is(err, wire.ErrVersion):
				// A well-formed frame from a different protocol
				// version: answer with the typed refusal (framed in
				// OUR version — the header layout is shared) so the
				// site surfaces ErrVersionMismatch instead of junk.
				s.stats.rejected.Add(1)
				s.writeAck(conn, wire.Ack{Code: wire.AckVersionMismatch,
					Detail: fmt.Sprintf("server speaks wire version %d", wire.Version)})
				return
			case errors.Is(err, wire.ErrOversize):
				// A well-formed frame over this coordinator's payload
				// limit (named in the detail): resending the same bytes
				// cannot help, so the refusal is permanent.
				s.stats.rejected.Add(1)
				s.writeAck(conn, wire.Ack{Code: wire.AckUnsupported, Detail: err.Error()})
				return
			default:
				// Wire-level damage (bad magic, truncation, checksum):
				// the bytes, not the message, were bad — AckBadFrame
				// tells the site this is transient and the same payload
				// may be retried, unlike AckCorrupt, which condemns the
				// payload itself.
				s.stats.rejected.Add(1)
				s.logf("unionstreamd: %s: dropping connection: %v", conn.RemoteAddr(), err)
				s.writeAck(conn, wire.Ack{Code: wire.AckBadFrame, Detail: err.Error()})
				return
			}
		}
		s.stats.framesRead.Add(1)
		s.stats.bytesRead.Add(int64(len(fr.Frame())))

		switch typ {
		case wire.MsgPush, wire.MsgPushNamed:
			stream, envelope, perr := wire.DecodePush(typ, payload)
			if perr != nil {
				s.stats.rejected.Add(1)
				if !s.writeAck(conn, wire.Ack{Code: wire.AckCorrupt, Detail: perr.Error()}) {
					return
				}
				continue
			}
			ack := s.absorbSketch(stream, envelope, fr.Frame())
			if ack.Code != wire.AckOK {
				s.stats.rejected.Add(1)
			}
			if !s.writeAck(conn, ack) {
				return
			}
		case wire.MsgQuery:
			s.serveQuery(conn, payload)
		case wire.MsgQueryExpr:
			s.serveQueryExpr(conn, payload)
		case wire.MsgStats:
			s.serveStats(conn)
		default:
			// MsgAck / MsgQueryResult / MsgQueryExprResult /
			// MsgStatsResult travel server→client only.
			s.stats.rejected.Add(1)
			if !s.writeAck(conn, wire.Ack{Code: wire.AckError,
				Detail: fmt.Sprintf("unexpected client message type %s", typ)}) {
				return
			}
		}
	}
}

func (s *Server) quitting() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) writeAck(conn net.Conn, a wire.Ack) bool {
	if err := wire.WriteAck(conn, a); err != nil {
		s.logf("unionstreamd: %s: writing ack: %v", conn.RemoteAddr(), err)
		return false
	}
	return true
}

// Absorb merges one self-describing sketch envelope into the default
// stream's group table without a network round trip — the in-process
// equivalent of a site push. Embedders and the allocation gate use
// it; the TCP path routes through the same code.
func (s *Server) Absorb(envelope []byte) error {
	return s.AbsorbNamed("", envelope)
}

// AbsorbNamed merges one envelope into the named stream's group, the
// in-process equivalent of a MsgPushNamed.
func (s *Server) AbsorbNamed(stream string, envelope []byte) error {
	if ack := s.absorbSketch(stream, envelope, nil); ack.Code != wire.AckOK {
		return fmt.Errorf("server: absorb refused: %s: %s", ack.Code, ack.Detail)
	}
	return nil
}

// absorbSketch stages a pushed sketch envelope, logs it on a durable
// coordinator and merges it into its (stream, kind, config digest)
// group, creating the group on first contact. Staging validates the
// whole envelope before the log append and outside every lock, so the
// group lock covers only the merge. frame is the push frame that
// carried the envelope, which a durable coordinator logs as it
// arrived; an in-process absorb has none and passes nil.
func (s *Server) absorbSketch(stream string, payload, frame []byte) wire.Ack {
	if err := wire.ValidStreamName(stream); err != nil {
		return wire.Ack{Code: wire.AckCorrupt, Detail: err.Error()}
	}
	st, err := sketch.Stage(payload)
	if err != nil {
		if errors.Is(err, sketch.ErrUnknownKind) {
			return wire.Ack{Code: wire.AckUnsupported, Detail: err.Error()}
		}
		return wire.Ack{Code: wire.AckCorrupt, Detail: err.Error()}
	}
	if s.cfg.RequireKind != "" {
		if info, _ := sketch.Lookup(st.Kind()); info.Name != s.cfg.RequireKind {
			return wire.Ack{Code: wire.AckKindMismatch,
				Detail: fmt.Sprintf("sketch kind %q, coordinator requires %q", info.Name, s.cfg.RequireKind)}
		}
	}
	if s.cfg.RequireSeed != nil && st.Seed() != *s.cfg.RequireSeed {
		return wire.Ack{Code: wire.AckSeedMismatch,
			Detail: fmt.Sprintf("sketch seed %d, coordinator requires %d", st.Seed(), *s.cfg.RequireSeed)}
	}
	if ferr := failpoint.Inject(failpoint.ServerAbsorb); ferr != nil {
		// Chaos hook: the absorb fails after validation but before the
		// group is touched — the site must see a retryable error and the
		// group state must be exactly as if the push never arrived.
		return wire.Ack{Code: wire.AckError, Detail: ferr.Error()}
	}

	if w := s.wal; w != nil {
		// Log before merge, merge before ack. The envelope is appended
		// and folded inside one seal read-window so a snapshot cannot
		// prune the segment holding a logged-but-unmerged record (see
		// walState.seal); an append failure refuses the push with a
		// transient ack — an acked push the log cannot replay would be
		// a durability lie.
		if err := s.ensureRecovered(); err != nil {
			return wire.Ack{Code: wire.AckError, Detail: err.Error()}
		}
		w.seal.RLock()
		defer w.seal.RUnlock()
		if frame != nil {
			err = w.log.AppendFrame(frame)
		} else {
			err = w.log.AppendNamed(stream, payload)
		}
		if err != nil {
			w.appendErrors.Add(1)
			w.lastErr.Store(err.Error())
			return wire.Ack{Code: wire.AckError, Detail: err.Error()}
		}
	}
	return s.foldIntoGroup(stream, st, payload)
}

// foldIntoGroup merges one staged envelope into its (stream, kind,
// digest) group. It is the shared tail of the absorb path and of WAL
// replay — a replayed record must take exactly the path the original
// push took, or recovery would not be bit-identical. A new group is
// published holding the envelope's opened sketch, what Open makes of
// it; the open runs outside the server lock, and if another absorb
// published the group meanwhile, the envelope merges into that one.
func (s *Server) foldIntoGroup(stream string, st sketch.Staged, envelope []byte) wire.Ack {
	key := cluster.GroupKey{Stream: stream, Kind: st.Kind(), Digest: st.Digest()}
	s.mu.Lock()
	g := s.groups[key]
	s.mu.Unlock()
	merge := true
	if g == nil {
		sk, err := st.Open(envelope)
		if err != nil {
			return wire.Ack{Code: wire.AckCorrupt, Detail: err.Error()}
		}
		info, _ := sketch.Lookup(st.Kind())
		s.mu.Lock()
		if g = s.groups[key]; g == nil {
			// Published holding its first sketch: a reader that finds
			// the group in s.groups uses g.sk at once.
			g = &group{key: key, name: info.Name, seed: st.Seed(), sk: sk}
			s.groups[key] = g
			merge = false
		}
		s.mu.Unlock()
	}

	start := time.Now()
	g.mu.Lock()
	var merr error
	if merge {
		merr = st.MergeInto(g.sk)
	}
	var nudgeRelay bool
	if merr == nil {
		g.absorbed++
		g.bytes += int64(len(envelope))
		if s.relay != nil {
			g.pendingRelay++
			nudgeRelay = g.relayDirty(s.relay)
		}
	}
	g.mu.Unlock()
	if nudgeRelay {
		// A hot group crossed the relay threshold: wake the flush loop
		// without blocking the absorb path (a full channel means a
		// flush is already pending).
		select {
		case s.relay.flushNow <- struct{}{}:
		default:
		}
	}
	if merr != nil {
		// Unreachable while groups are keyed by config digest (equal
		// digest means mergeable), but a future key relaxation must not
		// turn this into a silent drop.
		if errors.Is(merr, sketch.ErrMismatch) {
			return wire.Ack{Code: wire.AckSeedMismatch, Detail: merr.Error()}
		}
		return wire.Ack{Code: wire.AckError, Detail: merr.Error()}
	}
	s.recordMerge(time.Since(start), int64(len(envelope)))
	return wire.Ack{Code: wire.AckOK}
}

func (s *Server) serveQuery(conn net.Conn, payload []byte) {
	q, err := wire.DecodeQuery(payload)
	if err != nil {
		s.stats.rejected.Add(1)
		s.writeAck(conn, wire.Ack{Code: wire.AckCorrupt, Detail: err.Error()})
		return
	}
	v, qerr := s.answer(q)
	if qerr != nil {
		s.stats.rejected.Add(1)
		s.writeAck(conn, wire.Ack{Code: wire.AckError, Detail: qerr.Error()})
		return
	}
	s.stats.queries.Add(1)
	if err := wire.WriteFrame(conn, wire.MsgQueryResult, wire.EncodeQueryResult(v)); err != nil {
		s.logf("unionstreamd: %s: writing query result: %v", conn.RemoteAddr(), err)
	}
}

// answer evaluates q against the matching merge group, subject to the
// group kind's capabilities: every kind answers QueryDistinct;
// QuerySum answers NaN for kinds without sum support (matching the
// in-process simulator's convention); predicate queries are refused
// for kinds that cannot evaluate them.
func (s *Server) answer(q wire.Query) (float64, error) {
	pred, err := q.Predicate()
	if err != nil {
		return 0, err
	}
	g, err := s.selectGroup(q)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch q.Kind {
	case wire.QueryDistinct:
		return g.sk.Estimate(), nil
	case wire.QuerySum:
		if sum, ok := g.sk.(sketch.Summer); ok {
			return sum.EstimateSum(), nil
		}
		return math.NaN(), nil
	case wire.QueryCountWhere:
		if pe, ok := g.sk.(sketch.PredicateEstimator); ok {
			return pe.EstimateCountWhere(pred), nil
		}
		return 0, fmt.Errorf("server: %s queries unsupported by sketch kind %q", q.Kind, g.name)
	case wire.QuerySumWhere:
		if pe, ok := g.sk.(sketch.PredicateEstimator); ok {
			return pe.EstimateSumWhere(pred), nil
		}
		return 0, fmt.Errorf("server: %s queries unsupported by sketch kind %q", q.Kind, g.name)
	default:
		return 0, fmt.Errorf("server: unknown query kind %d", q.Kind)
	}
}

// selectGroup resolves the query's target group: the groups matching
// the query's seed (when HasSeed) and sketch kind (when HasKind),
// which must narrow to exactly one. Ambiguity errors enumerate the
// candidates — their streams, kinds, and digests — so the operator
// can see exactly which filter to add instead of guessing.
func (s *Server) selectGroup(q wire.Query) (*group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var matched []*group
	for _, g := range s.groups {
		if q.HasSeed && g.seed != q.Seed {
			continue
		}
		if q.HasKind && g.key.Kind != sketch.Kind(q.SketchKind) {
			continue
		}
		matched = append(matched, g)
	}
	switch {
	case len(matched) == 1:
		return matched[0], nil
	case len(s.groups) == 0:
		return nil, errors.New("server: no sketches absorbed yet")
	case len(matched) == 0:
		return nil, fmt.Errorf("server: no group matches the query (seed filter: %v, kind filter: %v); groups held: %s",
			q.HasSeed, q.HasKind, describeGroups(s.groupsLocked()))
	case q.HasSeed && !q.HasKind:
		return nil, fmt.Errorf("server: seed %d matches several groups: %s; name a sketch kind (or query by expression for a specific stream)",
			q.Seed, describeGroups(matched))
	case !q.HasSeed && !q.HasKind:
		return nil, fmt.Errorf("server: %d sketch groups in play: %s; query must name a seed or kind",
			len(s.groups), describeGroups(matched))
	default:
		return nil, fmt.Errorf("server: query matches %d groups: %s; narrow the seed/kind filters",
			len(matched), describeGroups(matched))
	}
}

// groupsLocked returns every group as a slice.
//
// locked: mu
func (s *Server) groupsLocked() []*group {
	out := make([]*group, 0, len(s.groups))
	for _, g := range s.groups {
		out = append(out, g)
	}
	return out
}

// describeGroups renders candidate groups for ambiguity errors, in
// deterministic (stream, kind, digest) order, eliding after a few so
// a 10^5-group coordinator cannot flood an error string.
func describeGroups(gs []*group) string {
	sort.Slice(gs, func(i, j int) bool { return keyLess(gs[i].key, gs[j].key) })
	const maxListed = 6
	parts := make([]string, 0, maxListed+1)
	for i, g := range gs {
		if i == maxListed {
			parts = append(parts, fmt.Sprintf("... %d more", len(gs)-maxListed))
			break
		}
		stream := g.key.Stream
		if stream == "" {
			stream = "(default)"
		}
		parts = append(parts, fmt.Sprintf("[stream %q kind %s seed %d digest %016x]", stream, g.name, g.seed, g.key.Digest))
	}
	return strings.Join(parts, ", ")
}

// keyLess orders groups by (stream, kind, digest): the order of
// Snapshots and of the groups an ambiguity error lists.
func keyLess(a, b cluster.GroupKey) bool {
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Digest < b.Digest
}

// SnapshotGroup returns the marshaled merged sketch payload for the
// group with the given coordination seed — the exact bytes a site
// would have sent (sans envelope) had it observed the union itself.
// Tests use it to assert that concurrent absorption is bit-identical
// to serial merging; operators can use it to checkpoint a group.
func (s *Server) SnapshotGroup(seed uint64) ([]byte, error) {
	g, err := s.selectGroup(wire.Query{HasSeed: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sk.MarshalBinary()
}

// GroupSnapshot is one merge group's portable state: its identity
// plus the self-describing envelope of its merged sketch — the exact
// bytes the group relays upstream, migrates to a new owner, or a site
// holding the whole group union would have pushed.
type GroupSnapshot struct {
	cluster.GroupKey
	KindName string
	Seed     uint64
	Envelope []byte
}

// Snapshots returns every group's snapshot, sorted by (stream, kind,
// digest) so two coordinators holding the same groups produce
// comparable slices. Unlike per-group SnapshotGroup lookups it is
// linear in the group count, which is what lets the cluster tests
// compare 10^5 groups between a sharded tier and a single
// coordinator.
func (s *Server) Snapshots() ([]GroupSnapshot, error) {
	s.mu.Lock()
	groups := s.groupsLocked()
	s.mu.Unlock()

	out := make([]GroupSnapshot, 0, len(groups))
	for _, g := range groups {
		g.mu.Lock()
		env, err := sketch.Envelope(g.sk)
		g.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("server: snapshotting group %s/%016x: %w", g.name, g.key.Digest, err)
		}
		out = append(out, GroupSnapshot{GroupKey: g.key, KindName: g.name, Seed: g.seed, Envelope: env})
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].GroupKey, out[j].GroupKey) })
	return out, nil
}
