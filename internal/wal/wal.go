// Package wal is the coordinator's durability layer: a segmented
// append-only log of accepted sketch envelopes, plus periodic
// merged-state snapshots that let replay-on-boot rebuild every merge
// group a crash would otherwise lose.
//
// # Format
//
// A segment file (wal-NNNNNNNN.seg) is a sequence of ordinary wire
// frames — the same magic/version/CRC discipline the network speaks —
// each a push frame wrapping one self-describing sketch envelope
// (internal/sketch). Nothing about a record is WAL-specific: it is the
// push frame a site sent, byte for byte as the coordinator read it
// (AppendFrame), so the wire decoder, its fuzz corpus, and its
// torn-frame semantics all apply verbatim. A snapshot file
// (snap-NNNNNNNN.snap) uses the identical framing, one record per
// merge group, holding the group's merged envelope.
//
// # Recovery model
//
// The log is at-least-once by construction: a crash between the
// append and the merge (or between a snapshot and its prune) leaves
// records that replay will apply again, and snapshots overlap the
// tail of the segment they cut. That is safe for exactly the reason
// the relay tier is safe — coordinated-sample merges are idempotent
// lattice joins, so replaying a record any number of times, in any
// interleaving with a snapshot that already covers it, converges to
// the same state. The recovery suites prove this by killing the
// coordinator at every wal/* failpoint and asserting the reboot is
// bit-identical to an uninterrupted control.
//
// A torn tail — the classic mid-append crash — is detected by the
// frame CRC and truncated at the last record boundary when the log
// reopens; replay stops cleanly at the first damaged record and never
// interprets bytes past it.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// SyncPolicy says when appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every appended record: an acked push
	// survives an immediate power cut. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: fastest, and an OS crash
	// may lose the most recent acked records (a process crash does
	// not). Replay idempotence makes the partial tail safe either way.
	SyncNever

	numSyncPolicies
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy maps the -wal-fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
	}
}

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero: small enough that a snapshot prunes quickly, large enough that
// rotation cost vanishes against fsync cost.
const DefaultSegmentBytes = 4 << 20

// Options parameterizes a Log. The zero value is a durable default:
// fsync on every append, 4 MiB segments, wire-default record limit.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this
	// size; <= 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// MaxRecordBytes bounds a decoded record's payload, exactly like
	// the wire listener's frame limit; 0 selects
	// wire.DefaultMaxPayload.
	MaxRecordBytes uint32
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

// Errors the log surfaces. ErrDamaged marks structural damage in a
// segment or snapshot (bad frame, CRC mismatch, truncation, foreign
// frame type); callers distinguish it from their own replay-callback
// errors with errors.Is.
var (
	ErrDamaged = errors.New("wal: damaged record")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrNotReplayed reports an append before Replay ran: appending
	// ahead of recovery would interleave new records with unread old
	// ones, so the log refuses.
	ErrNotReplayed = errors.New("wal: append before replay")
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(idx uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

func snapName(cut uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, cut, snapSuffix) }

// parseIndexed extracts the index from a "<prefix>NNN<suffix>" name.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if rest, ok = strings.CutSuffix(rest, suffix); !ok {
		return 0, false
	}
	idx, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Log is one coordinator's write-ahead log: an open active segment,
// the sealed segments behind it, and at most one live snapshot.
// Append and Snapshot are safe for concurrent use (Snapshot rounds
// themselves must be serialized by the caller, as the server's
// snapshot loop does); Replay must complete before the first Append.
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex // guards: f, scratch, segBytes, liveSegs, replayed, closed, rotateErr, syncErr
	f  *os.File
	// scratch is the buffer AppendNamed frames its records in.
	scratch []byte
	// segBytes is the active segment's current size; liveSegs counts
	// segment files on disk.
	segBytes int64
	liveSegs int64
	replayed bool
	closed   bool
	// rotateErr is the latest failed rotation's error: the append that
	// triggered it succeeded, so Stats is where the failure shows.
	rotateErr string
	// syncErr is the first failed per-append fsync; once set, appends
	// are refused (see appendLocked).
	syncErr error

	// seg is the active segment index, snapSeg the live snapshot's cut
	// (0 = none); written under mu, read lock-free by Stats.
	seg     atomic.Uint64
	snapSeg atomic.Uint64

	// replaySegs and replaySnap are the recovery work list captured at
	// Open: the snapshot to load (empty = none) and the segment
	// indexes to replay after it, ascending.
	replaySegs []uint64
	replaySnap string

	// Counters, all atomics so /statsz never takes the append lock.
	appended        atomic.Int64
	appendedBytes   atomic.Int64
	fsyncs          atomic.Int64
	rotations       atomic.Int64
	rotateErrors    atomic.Int64
	snapshots       atomic.Int64
	snapGroups      atomic.Int64
	prunedSegs      atomic.Int64
	replayedGroups  atomic.Int64
	replayedRecords atomic.Int64
	replayedBytes   atomic.Int64
	truncatedTail   atomic.Int64
}

// Stats is a point-in-time snapshot of the log's counters, surfaced
// by the server's /statsz wal block.
type Stats struct {
	Dir                    string
	CurrentSegment         uint64
	LiveSegments           int64
	SnapshotSegment        uint64
	AppendedRecords        int64
	AppendedBytes          int64
	Fsyncs                 int64
	Rotations              int64
	RotateErrors           int64
	LastRotateError        string
	Snapshots              int64
	LastSnapshotGroups     int64
	PrunedSegments         int64
	ReplayedSnapshotGroups int64
	ReplayedRecords        int64
	ReplayedBytes          int64
	TruncatedTailBytes     int64
}

// Stats returns the log's current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	liveSegs, rotateErr := l.liveSegs, l.rotateErr
	l.mu.Unlock()
	return Stats{
		Dir:                    l.dir,
		CurrentSegment:         l.seg.Load(),
		LiveSegments:           liveSegs,
		SnapshotSegment:        l.snapSeg.Load(),
		AppendedRecords:        l.appended.Load(),
		AppendedBytes:          l.appendedBytes.Load(),
		Fsyncs:                 l.fsyncs.Load(),
		Rotations:              l.rotations.Load(),
		RotateErrors:           l.rotateErrors.Load(),
		LastRotateError:        rotateErr,
		Snapshots:              l.snapshots.Load(),
		LastSnapshotGroups:     l.snapGroups.Load(),
		PrunedSegments:         l.prunedSegs.Load(),
		ReplayedSnapshotGroups: l.replayedGroups.Load(),
		ReplayedRecords:        l.replayedRecords.Load(),
		ReplayedBytes:          l.replayedBytes.Load(),
		TruncatedTailBytes:     l.truncatedTail.Load(),
	}
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// CurrentSegment returns the active segment's index. A snapshot built
// from state collected after this call covers every sealed segment
// below it (see Snapshot).
func (l *Log) CurrentSegment() uint64 { return l.seg.Load() }

func (l *Log) limit() uint32 {
	if l.opts.MaxRecordBytes == 0 {
		return wire.DefaultMaxPayload
	}
	return l.opts.MaxRecordBytes
}

func (l *Log) segmentBytes() int64 {
	if l.opts.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return l.opts.SegmentBytes
}

// Open opens (or creates) the log in dir: it discards temp files and
// files a finished snapshot superseded, truncates the active
// segment's torn tail at the last clean record boundary, and captures
// the recovery work list for Replay. The caller must run Replay
// before the first Append.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var segs []uint64
	var snapGen uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// A half-written snapshot from a crash mid-write: the
			// rename never happened, so it covers nothing.
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, segPrefix):
			if idx, ok := parseIndexed(name, segPrefix, segSuffix); ok {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, snapPrefix):
			if gen, ok := parseIndexed(name, snapPrefix, snapSuffix); ok && gen > snapGen {
				snapGen = gen
			}
		}
	}
	// Drop what the live snapshot superseded — including leftovers
	// from a crash between a snapshot's rename and its prune.
	kept := segs[:0]
	for _, idx := range segs {
		if idx < snapGen {
			os.Remove(filepath.Join(dir, segName(idx)))
			continue
		}
		kept = append(kept, idx)
	}
	segs = kept
	for _, e := range entries {
		if gen, ok := parseIndexed(e.Name(), snapPrefix, snapSuffix); ok && gen < snapGen {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	// The active segment: the highest on disk (tail-truncated to its
	// clean prefix), or a fresh one right above the snapshot cut.
	var cur uint64
	if n := len(segs); n > 0 {
		cur = segs[n-1]
		if err := l.truncateTornTail(filepath.Join(dir, segName(cur))); err != nil {
			return nil, err
		}
	} else {
		cur = snapGen + 1
		segs = append(segs, cur)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(cur)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}

	l.mu.Lock()
	l.f = f
	l.segBytes = st.Size()
	l.liveSegs = int64(len(segs))
	l.mu.Unlock()
	l.seg.Store(cur)
	l.snapSeg.Store(snapGen)
	l.replaySegs = segs
	if snapGen > 0 {
		l.replaySnap = filepath.Join(dir, snapName(snapGen))
	}
	return l, nil
}

// truncateTornTail cuts path back to its longest clean prefix of
// records — the recovery move for a crash mid-append.
func (l *Log) truncateTornTail(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: scanning tail: %w", err)
	}
	_, clean, derr := DecodeSegment(f, l.limit(), func(string, []byte) error { return nil })
	f.Close()
	if derr == nil {
		return nil
	}
	if !errors.Is(derr, ErrDamaged) {
		return derr
	}
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: scanning tail: %w", err)
	}
	if err := os.Truncate(path, clean); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	l.truncatedTail.Add(st.Size() - clean)
	return nil
}

// Append logs one accepted envelope for the default (unnamed)
// stream, fsyncing per the sync policy and rotating a full segment.
// The coordinator calls it after validating a push and before merging
// or acking it: an error means the push must be refused (transiently),
// because an un-logged merge would not survive a crash the ack
// promised it would.
func (l *Log) Append(envelope []byte) error {
	return l.AppendNamed("", envelope)
}

// AppendNamed logs one accepted envelope for the given stream, framed
// by wire.AppendPush in the log's scratch buffer: a default-stream
// record is a plain MsgPush frame — bit-identical to what every
// pre-stream log holds — so logs written by old coordinators and new
// ones carrying only default-stream traffic are interchangeable. It
// serves pushes that arrive without a frame (Server.AbsorbNamed); a
// push read off the network is logged as it arrived, by AppendFrame.
func (l *Log) AppendNamed(stream string, envelope []byte) error {
	if err := failpoint.Inject(failpoint.WALAppend); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	frame, err := wire.AppendPush(l.scratch[:0], stream, envelope)
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.scratch = frame
	return l.appendLocked(frame)
}

// AppendFrame logs one push frame byte for byte, as a wire.Reader
// read and checked it (Reader.Frame): the record is the frame that
// arrived, with no re-encode. Any other bytes would stop replay at
// them as damage, so the caller passes only a whole, CRC-checked push
// frame that wire.DecodePush accepts.
func (l *Log) AppendFrame(frame []byte) error {
	if err := failpoint.Inject(failpoint.WALAppend); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(frame)
}

// appendLocked writes one record frame to the active segment, fsyncs
// it per the sync policy and rotates a full segment.
//
// A failed per-append fsync is terminal for appends: the kernel may
// have dropped the record's dirty pages and still let a later fsync
// succeed, so a later acked record could sit behind a damaged one that
// replay stops at. Every later append writes nothing and returns an
// error wrapping the first failure, until a reopened log replays.
//
// locked: mu
func (l *Log) appendLocked(frame []byte) error {
	switch {
	case l.closed:
		return ErrClosed
	case !l.replayed:
		return ErrNotReplayed
	case l.syncErr != nil:
		return fmt.Errorf("wal: append refused after a failed fsync: %w", l.syncErr)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += int64(len(frame))
	l.appended.Add(1)
	l.appendedBytes.Add(int64(len(frame)))
	if l.opts.Sync == SyncAlways {
		err := failpoint.Inject(failpoint.WALFsync)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.syncErr = fmt.Errorf("wal: fsync: %w", err)
			return l.syncErr
		}
		l.fsyncs.Add(1)
	}
	if l.segBytes >= l.segmentBytes() {
		// Rotation failure is not an append failure: the record above
		// is already written. The failure is counted and kept for
		// Stats, and a rotation that never switched files is retried
		// by the next append.
		if err := l.rotateLocked(); err != nil {
			l.rotateErrors.Add(1)
			l.rotateErr = err.Error()
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
//
// locked: mu
func (l *Log) rotateLocked() error {
	if err := failpoint.Inject(failpoint.WALRotate); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	next := l.seg.Load() + 1
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	// Seal the old segment: sync it so a sealed segment is always
	// durable regardless of policy, then move on. A failed seal is
	// returned once the log has moved on: the old file is closed
	// either way.
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nf
	l.segBytes = 0
	l.liveSegs++
	l.seg.Store(next)
	l.rotations.Add(1)
	var seal error
	if err := errors.Join(serr, cerr); err != nil {
		seal = fmt.Errorf("wal: rotate: sealing segment %d: %w", next-1, err)
	}
	return errors.Join(seal, l.syncDir())
}

// syncDir fsyncs the log directory so renames and new segment files
// survive a crash.
func (l *Log) syncDir() error {
	if err := failpoint.Inject(failpoint.WALDirSync); err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	if err := errors.Join(d.Sync(), d.Close()); err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	return nil
}

// Close syncs and closes the active segment. It does not snapshot;
// the server's Shutdown does that first (and its Abort deliberately
// does not). A failed sync is returned even though the file is closed:
// under SyncNever it is the only sync the segment's tail gets.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	if err := errors.Join(serr, l.f.Close()); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
