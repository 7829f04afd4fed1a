package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/wire"
)

// counters are the server's hot-path metrics, all atomics so the data
// path never takes a stats lock. Merge latency keeps a total and a
// CAS-maintained max rather than a histogram — enough for the /statsz
// use case without per-merge allocation.
type counters struct {
	connsAccepted atomic.Int64
	activeConns   atomic.Int64
	framesRead    atomic.Int64
	bytesRead     atomic.Int64
	absorbed      atomic.Int64
	sketchBytes   atomic.Int64
	queries       atomic.Int64
	exprQueries   atomic.Int64
	rejected      atomic.Int64
	mergeNanos    atomic.Int64
	mergeNanosMax atomic.Int64
}

func (s *Server) recordMerge(d time.Duration, payloadBytes int64) {
	s.stats.absorbed.Add(1)
	s.stats.sketchBytes.Add(payloadBytes)
	ns := d.Nanoseconds()
	s.stats.mergeNanos.Add(ns)
	for {
		old := s.stats.mergeNanosMax.Load()
		if ns <= old || s.stats.mergeNanosMax.CompareAndSwap(old, ns) {
			return
		}
	}
}

// GroupStats describes one merge group in a Stats snapshot.
type GroupStats struct {
	// Stream is the logical stream the group belongs to ("" for the
	// default stream).
	Stream string `json:"stream"`
	// Kind is the registered sketch-kind name ("gt", "kmv", ...).
	Kind string `json:"kind"`
	// Seed is the group's coordination seed (0 for seedless kinds).
	Seed uint64 `json:"seed"`
	// Digest is the group's config digest in hex; sketches merge into
	// the same group exactly when kind and digest both match.
	Digest string `json:"digest"`
	// SketchesAbsorbed counts site messages merged into this group.
	SketchesAbsorbed int64 `json:"sketches_absorbed"`
	// SketchBytes totals their payload bytes — the paper's
	// communication cost, as received.
	SketchBytes int64 `json:"sketch_bytes"`
	// DistinctEstimate is the group's current union F0 estimate. It is
	// zero when the kind cannot answer (e.g. a windowed sketch whose
	// retained horizon no longer covers the stream start).
	DistinctEstimate float64 `json:"distinct_estimate"`
	// Params holds kind-specific dimensions and accuracy targets, for
	// kinds that describe themselves (sketch.Describer).
	Params map[string]any `json:"params,omitempty"`
	// RelayPushes counts acked upstream pushes of this group's merged
	// envelope (relay mode only); PendingRelay counts absorbs not yet
	// covered by an acked push.
	RelayPushes  int64 `json:"relay_pushes,omitempty"`
	PendingRelay int64 `json:"pending_relay,omitempty"`
	// OwnerShard and Owned report the group's consistent-hash-ring
	// assignment when the coordinator knows its cluster position
	// (Config.Cluster): the owning shard index, and whether that is
	// this coordinator. A false Owned flags a misrouted group —
	// harmless to correctness (merges are idempotent) but a sign the
	// pushing fleet disagrees about the ring.
	OwnerShard *int  `json:"owner_shard,omitempty"`
	Owned      *bool `json:"owned,omitempty"`
}

// RelayStats is the /statsz section a relay coordinator adds: the
// upstream identity and the flush loop's counters.
type RelayStats struct {
	Upstream string `json:"upstream"`
	// Flushes counts flush rounds started; FlushSkips rounds skipped
	// because one was already running.
	Flushes    int64 `json:"flushes"`
	FlushSkips int64 `json:"flush_skips"`
	// GroupsPushed counts acked per-group upstream pushes across all
	// rounds; BytesPushed their envelope bytes.
	GroupsPushed int64 `json:"groups_pushed"`
	BytesPushed  int64 `json:"bytes_pushed"`
	// PushErrors counts failed rounds and failed per-group pushes;
	// LastError is the most recent failure's message.
	PushErrors int64  `json:"push_errors"`
	LastError  string `json:"last_error,omitempty"`
	// DrainFlushed reports whether the shutdown drain flush ran, and
	// DrainGroups how many groups it delivered.
	DrainFlushed bool  `json:"drain_flushed"`
	DrainGroups  int64 `json:"drain_groups"`
}

// StreamStats aggregates one logical stream's groups for the /statsz
// streams block — the per-stream rollup an operator scans before
// drilling into groups.
type StreamStats struct {
	// Stream is the logical stream name ("" for the default stream).
	Stream string `json:"stream"`
	// Groups counts the stream's merge groups (one per kind/digest).
	Groups int64 `json:"groups"`
	// SketchesAbsorbed and SketchBytes total the stream's absorbed site
	// messages and their payload bytes.
	SketchesAbsorbed int64 `json:"sketches_absorbed"`
	SketchBytes      int64 `json:"sketch_bytes"`
}

// ClusterStats is the /statsz section a ring-aware coordinator adds.
type ClusterStats struct {
	Shard    int    `json:"shard"`
	Shards   int    `json:"shards"`
	RingSeed uint64 `json:"ring_seed"`
	// GroupsOwned and GroupsForeign partition the coordinator's groups
	// by ring ownership.
	GroupsOwned   int64 `json:"groups_owned"`
	GroupsForeign int64 `json:"groups_foreign"`
}

// Stats is the introspection snapshot served at /statsz and over
// MsgStats frames.
type Stats struct {
	ConnsAccepted    int64         `json:"conns_accepted"`
	ActiveConns      int64         `json:"active_conns"`
	FramesRead       int64         `json:"frames_read"`
	BytesRead        int64         `json:"bytes_read"`
	SketchesAbsorbed int64         `json:"sketches_absorbed"`
	SketchBytes      int64         `json:"sketch_bytes"`
	QueriesServed    int64         `json:"queries_served"`
	ExprQueries      int64         `json:"expr_queries"`
	Rejected         int64         `json:"rejected"`
	Merges           int64         `json:"merges"`
	MergeNanosTotal  int64         `json:"merge_nanos_total"`
	MergeNanosMax    int64         `json:"merge_nanos_max"`
	MergeNanosMean   float64       `json:"merge_nanos_mean"`
	Relay            *RelayStats   `json:"relay,omitempty"`
	Cluster          *ClusterStats `json:"cluster,omitempty"`
	WAL              *WALStats     `json:"wal,omitempty"`
	Streams          []StreamStats `json:"streams"`
	Groups           []GroupStats  `json:"groups"`
}

// Stats returns a consistent snapshot of the server's counters and
// per-group state. Groups are ordered by stream, kind, seed, then
// digest for stable output; the streams block aggregates them per
// stream in the same order.
func (s *Server) Stats() Stats {
	// Every absorb is one merge, so one counter serves both fields.
	absorbed := s.stats.absorbed.Load()
	st := Stats{
		ConnsAccepted:    s.stats.connsAccepted.Load(),
		ActiveConns:      s.stats.activeConns.Load(),
		FramesRead:       s.stats.framesRead.Load(),
		BytesRead:        s.stats.bytesRead.Load(),
		SketchesAbsorbed: absorbed,
		SketchBytes:      s.stats.sketchBytes.Load(),
		QueriesServed:    s.stats.queries.Load(),
		ExprQueries:      s.stats.exprQueries.Load(),
		Rejected:         s.stats.rejected.Load(),
		Merges:           absorbed,
		MergeNanosTotal:  s.stats.mergeNanos.Load(),
		MergeNanosMax:    s.stats.mergeNanosMax.Load(),
	}
	if st.Merges > 0 {
		st.MergeNanosMean = float64(st.MergeNanosTotal) / float64(st.Merges)
	}
	if r := s.relay; r != nil {
		rs := &RelayStats{
			Upstream:     r.cfg.Upstream,
			Flushes:      r.flushes.Load(),
			FlushSkips:   r.skips.Load(),
			GroupsPushed: r.groupsSent.Load(),
			BytesPushed:  r.bytesSent.Load(),
			PushErrors:   r.pushErrors.Load(),
			DrainFlushed: r.drainFlush.Load(),
			DrainGroups:  r.drainGroups.Load(),
		}
		if v, ok := r.lastErr.Load().(string); ok {
			rs.LastError = v
		}
		st.Relay = rs
	}
	c := s.cfg.Cluster
	if c != nil {
		st.Cluster = &ClusterStats{Shard: c.Shard, Shards: c.Ring.Shards(), RingSeed: c.Ring.Seed()}
	}
	st.WAL = s.walStats()

	s.mu.Lock()
	groups := s.groupsLocked()
	s.mu.Unlock()
	for _, g := range groups {
		gs := GroupStats{
			Stream: g.key.Stream,
			Kind:   g.name,
			Seed:   g.seed,
			Digest: fmt.Sprintf("%016x", g.key.Digest),
		}
		g.mu.Lock()
		gs.SketchesAbsorbed = g.absorbed
		gs.SketchBytes = g.bytes
		gs.RelayPushes = g.relayPushes
		gs.PendingRelay = g.pendingRelay
		if v := g.sk.Estimate(); !math.IsNaN(v) && !math.IsInf(v, 0) {
			gs.DistinctEstimate = v
		}
		if d, ok := g.sk.(sketch.Describer); ok {
			gs.Params = d.Describe()
		}
		g.mu.Unlock()
		if c != nil {
			owner := c.Ring.Owner(g.key)
			owned := owner == c.Shard
			gs.OwnerShard, gs.Owned = &owner, &owned
			if owned {
				st.Cluster.GroupsOwned++
			} else {
				st.Cluster.GroupsForeign++
			}
		}
		st.Groups = append(st.Groups, gs)
	}
	sort.Slice(st.Groups, func(i, j int) bool {
		a, b := st.Groups[i], st.Groups[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Digest < b.Digest
	})
	// The streams rollup follows the sorted groups, so it inherits
	// their order with one entry per distinct stream.
	for _, gs := range st.Groups {
		if n := len(st.Streams); n == 0 || st.Streams[n-1].Stream != gs.Stream {
			st.Streams = append(st.Streams, StreamStats{Stream: gs.Stream})
		}
		ss := &st.Streams[len(st.Streams)-1]
		ss.Groups++
		ss.SketchesAbsorbed += gs.SketchesAbsorbed
		ss.SketchBytes += gs.SketchBytes
	}
	return st
}

// serveStats answers a MsgStats frame with the JSON snapshot.
func (s *Server) serveStats(conn net.Conn) {
	body, err := json.Marshal(s.Stats())
	if err != nil {
		s.writeAck(conn, wire.Ack{Code: wire.AckError, Detail: err.Error()})
		return
	}
	s.stats.queries.Add(1)
	if werr := wire.WriteFrame(conn, wire.MsgStatsResult, body); werr != nil {
		s.logf("unionstreamd: %s: writing stats: %v", conn.RemoteAddr(), werr)
	}
}

// StatszHandler returns an http.Handler serving the same snapshot as
// JSON — mount it at /statsz next to the TCP listener.
func (s *Server) StatszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
