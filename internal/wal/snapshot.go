package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// Record is one WAL entry: a sketch envelope tagged with the stream
// it belongs to. The default stream is "".
type Record struct {
	Stream   string
	Envelope []byte
}

// Snapshot durably writes one merged record per group and prunes
// every segment below cut, the active segment index at the moment the
// caller collected that state (CurrentSegment). The caller guarantees
// the records cover every record in segments below cut — the
// server's seal barrier provides exactly that — while records still
// in flight to the active segment survive in it and replay after the
// snapshot, where idempotent joins absorb the overlap.
//
// Records are framed by wire.EncodePush, exactly like appended ones,
// so a default-stream snapshot is the pre-stream format byte for byte.
//
// The write is atomic: records go to a temp file which is fsynced,
// renamed into place, and followed by a directory fsync. A crash at
// any point leaves either the old recovery state (temp files and
// stale snapshots are discarded at Open) or the new one — never a
// half-snapshot that prunes what it does not cover, because the prune
// happens strictly after the rename.
func (l *Log) Snapshot(cut uint64, records []Record) error {
	if err := failpoint.Inject(failpoint.WALSnapshot); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.mu.Lock()
	switch {
	case l.closed:
		l.mu.Unlock()
		return ErrClosed
	case !l.replayed:
		l.mu.Unlock()
		return ErrNotReplayed
	}
	l.mu.Unlock()
	if prev := l.snapSeg.Load(); cut < prev {
		return fmt.Errorf("wal: snapshot cut %d behind live snapshot %d", cut, prev)
	}

	final := filepath.Join(l.dir, snapName(cut))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	for _, rec := range records {
		t, payload, err := wire.EncodePush(rec.Stream, rec.Envelope)
		if err == nil {
			_, err = f.Write(wire.EncodeFrame(t, payload))
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: snapshot write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	// Until the rename is durable the snapshot may vanish in a power
	// cut, so nothing it supersedes may go yet.
	if err := l.syncDir(); err != nil {
		return err
	}

	// The snapshot is live; everything it supersedes can go. A crash
	// from here on just leaves garbage for the next Open to collect.
	prev := l.snapSeg.Load()
	l.snapSeg.Store(cut)
	l.snapshots.Add(1)
	l.snapGroups.Store(int64(len(records)))
	if prev > 0 && prev != cut {
		os.Remove(filepath.Join(l.dir, snapName(prev)))
	}
	return l.prune(cut)
}

// prune removes segment files strictly below cut, updates the live
// segment count, and syncs the directory.
func (l *Log) prune(cut uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: prune: %w", err)
	}
	var pruned, live int64
	for _, e := range entries {
		idx, ok := parseIndexed(e.Name(), segPrefix, segSuffix)
		if !ok {
			continue
		}
		if idx < cut {
			if os.Remove(filepath.Join(l.dir, e.Name())) == nil {
				pruned++
				continue
			}
		}
		live++
	}
	l.prunedSegs.Add(pruned)
	l.mu.Lock()
	l.liveSegs = live
	l.mu.Unlock()
	return l.syncDir()
}
