package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// WALConfig makes the coordinator durable: every accepted envelope is
// appended to a write-ahead log before it is merged or acked, and a
// crashed coordinator replays the log (snapshot first, then the
// surviving segments) to rebuild its merge groups before the listener
// accepts.
//
// The correctness argument is the relay tier's, pointed at disk: the
// log is at-least-once — a crash between append and merge, or between
// a snapshot and the records it overlaps, makes replay re-deliver —
// and the group merge is a commutative, associative, idempotent
// lattice join, so every replay schedule converges to the state an
// uninterrupted coordinator would hold. The recovery matrix
// (recovery_test.go, distnet) kills the server at every wal/*
// failpoint and asserts exactly that, byte for byte.
type WALConfig struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentBytes rotates log segments at this size; <= 0 selects
	// wal.DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the append fsync policy (wal.SyncAlways by default: an
	// acked push survives a power cut, at one fsync per push).
	Sync wal.SyncPolicy
	// SnapshotEvery is the period between merged-state snapshots,
	// which bound replay time and prune the log; <= 0 selects
	// DefaultSnapshotInterval. Shutdown always writes a final one,
	// after waiting out a round still in flight.
	SnapshotEvery time.Duration
}

// DefaultSnapshotInterval is the snapshot period when WALConfig
// leaves it zero.
const DefaultSnapshotInterval = time.Minute

// walState is the running durability layer: the log, the snapshot
// rounds, and the /statsz counters.
type walState struct {
	cfg WALConfig
	round

	// seal is the snapshot barrier, not a field guard: every
	// append→merge window holds it for read, and a snapshot round
	// holds it for write while it pins the segment cut and collects
	// group state. That drain guarantees every record in a segment
	// below the cut is already merged — so pruning those segments
	// loses nothing — while records appended after the cut was pinned
	// land in the kept segments and replay on top of the snapshot,
	// where idempotent joins absorb the overlap.
	seal sync.RWMutex // guards:

	// recoverOnce runs Open+Replay exactly once, before the first
	// append; log, recErr, and replay are written inside it and read
	// only after it returns (or after recovered is observed true).
	recoverOnce sync.Once
	log         *wal.Log
	recErr      error
	replay      wal.ReplayStats
	recovered   atomic.Bool

	appendErrors atomic.Int64
	snapErrors   atomic.Int64
	lastErr      atomic.Value // string
}

// ensureRecovered opens the log and replays it into the group table,
// exactly once. Serve calls it before accepting; Absorb and
// SnapshotWAL call it so an embedder needs no listener. An error
// means recovery failed and the coordinator refuses to serve (every
// later call returns the same error).
func (s *Server) ensureRecovered() error {
	w := s.wal
	if w == nil {
		return nil
	}
	w.recoverOnce.Do(func() { w.recErr = s.recoverWAL() })
	return w.recErr
}

// recoverWAL is the boot sequence: open the log (torn tails are
// truncated there), replay the snapshot and segments into the group
// table, and — if replay stopped at mid-log damage — immediately
// snapshot the restored state so the unreadable suffix is superseded
// rather than re-read on every boot.
func (s *Server) recoverWAL() error {
	w := s.wal
	log, err := wal.Open(w.cfg.Dir, wal.Options{
		SegmentBytes:   w.cfg.SegmentBytes,
		MaxRecordBytes: s.cfg.MaxPayload,
		Sync:           w.cfg.Sync,
	})
	if err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	st, err := log.Replay(func(stream string, envelope []byte) error {
		staged, serr := sketch.Stage(envelope)
		if serr != nil {
			return fmt.Errorf("replaying logged envelope: %w", serr)
		}
		// Pre-stream records replay with stream "" — the default
		// stream, exactly the group a plain MsgPush would have reached.
		if ack := s.foldIntoGroup(stream, staged, envelope); ack.Code != wire.AckOK {
			return fmt.Errorf("replaying logged envelope: %s: %s", ack.Code, ack.Detail)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return fmt.Errorf("server: wal recovery: %w", err)
	}
	w.log = log
	w.replay = st
	if st.Damaged {
		s.logf("unionstreamd: wal replay stopped at damaged %s; snapshotting restored state", st.DamagedFile)
		// Nothing else runs yet, so this round needs no token, and
		// SnapshotWAL would re-enter recoverOnce.
		if _, serr := s.snapshotGroupsToWAL(); serr != nil {
			log.Close()
			return fmt.Errorf("server: wal recovery: superseding damaged %s: %w", st.DamagedFile, serr)
		}
	}
	w.recovered.Store(true)
	if st.SnapshotGroups > 0 || st.Records > 0 {
		s.logf("unionstreamd: wal replayed %d snapshot groups + %d records (%d bytes) from %s",
			st.SnapshotGroups, st.Records, st.Bytes, w.cfg.Dir)
	}
	return nil
}

// SnapshotWAL writes a merged-state snapshot (one envelope per group)
// and prunes the segments it supersedes, returning how many groups it
// captured. It is what the snapshot timer runs and what tests call to
// make snapshot timing deterministic. A call that finds a round in
// progress returns (0, nil) at once (see round); Shutdown's final
// snapshot waits instead.
func (s *Server) SnapshotWAL() (groups int, err error) {
	w := s.wal
	if w == nil {
		return 0, errors.New("server: no WAL configured")
	}
	if err := s.ensureRecovered(); err != nil {
		return 0, err
	}
	return w.try(s.snapshotGroupsToWAL)
}

// snapshotGroupsToWAL collects every group's merged envelope under
// the seal barrier and hands them to the log with the pinned cut.
func (s *Server) snapshotGroupsToWAL() (int, error) {
	w := s.wal
	// Drain every in-flight append→merge window, then pin the cut:
	// from here, all records in segments below it are merged into the
	// state we collect.
	w.seal.Lock()
	cut := w.log.CurrentSegment()
	snaps, err := s.Snapshots()
	w.seal.Unlock()
	if err != nil {
		w.snapErrors.Add(1)
		w.lastErr.Store(err.Error())
		return 0, fmt.Errorf("server: wal snapshot: %w", err)
	}
	records := make([]wal.Record, 0, len(snaps))
	for _, sn := range snaps {
		records = append(records, wal.Record{Stream: sn.Stream, Envelope: sn.Envelope})
	}
	if err := w.log.Snapshot(cut, records); err != nil {
		w.snapErrors.Add(1)
		w.lastErr.Store(err.Error())
		return 0, fmt.Errorf("server: wal snapshot: %w", err)
	}
	return len(records), nil
}

// Abort is the recovery suites' crash switch: it severs the listener
// and every connection, stops the loops, and abandons the WAL exactly
// where it stands — no drain flush, no final snapshot, no fsync
// beyond what the append path already did — so a test can reboot from
// the directory a real crash would have left. It is idempotent with
// Shutdown (whichever runs first wins).
func (s *Server) Abort() {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return
	}
	s.shutdown = true
	close(s.quit)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.loops.Wait()
	if w := s.wal; w != nil && w.recovered.Load() {
		// Release the directory so the rebooted server can reopen it;
		// Close's sync does not make the crash gentler — the bytes a
		// mid-append failpoint left half-written stay half-written.
		w.log.Close()
	}
	s.logf("unionstreamd: aborted (crash switch)")
}

// WALStats is the /statsz section a durable coordinator adds: the
// log's own counters (wal.Stats), the fsync policy, the recovery
// outcome, and the append and snapshot error tallies.
type WALStats struct {
	wal.Stats
	SyncPolicy string `json:"sync_policy"`
	// Recovered reports that boot-time replay completed; ReplayDamaged
	// that it stopped early at a damaged record (the restored prefix
	// was immediately re-snapshotted).
	Recovered      bool  `json:"recovered"`
	ReplayDamaged  bool  `json:"replay_damaged"`
	AppendErrors   int64 `json:"append_errors"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	SnapshotSkips  int64 `json:"snapshot_skips"`
	// LastError is the latest append or snapshot error or, when there
	// is none, the log's latest failed rotation.
	LastError string `json:"last_error,omitempty"`
}

// walStats assembles the /statsz wal block. Before recovery has run
// (or after it failed) only the configuration and the error tallies
// are reported.
func (s *Server) walStats() *WALStats {
	w := s.wal
	if w == nil {
		return nil
	}
	ws := &WALStats{
		Stats:          wal.Stats{Dir: w.cfg.Dir},
		SyncPolicy:     w.cfg.Sync.String(),
		AppendErrors:   w.appendErrors.Load(),
		SnapshotErrors: w.snapErrors.Load(),
		SnapshotSkips:  w.skips.Load(),
	}
	if v, ok := w.lastErr.Load().(string); ok {
		ws.LastError = v
	}
	if !w.recovered.Load() {
		return ws
	}
	ws.Stats = w.log.Stats()
	ws.Recovered = true
	ws.ReplayDamaged = w.replay.Damaged
	if ws.LastError == "" {
		ws.LastError = ws.LastRotateError
	}
	return ws
}
