package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// DecodeSegment reads wire frames from r, calling fn with each
// record's stream name and sketch envelope, until the stream ends. It
// returns the number of records delivered and the byte offset of the
// last clean record boundary — the truncation point for a torn tail.
// The records are read through one wire.Reader over a 64 KiB buffered
// reader, so the envelope fn receives is valid only until fn returns.
//
// Each record is a push frame decoded by wire.DecodePush: a MsgPush
// frame (the pre-stream format; its stream is the default "") or a
// MsgPushNamed frame carrying an explicit stream name — so every log
// written before streams existed replays into the default stream
// unchanged.
//
// The error is nil when the stream ends cleanly between frames,
// satisfies errors.Is(err, ErrDamaged) on any structural damage (a
// torn or bit-flipped frame, a malformed named-push payload, or a
// frame of any other type — a segment never legitimately holds one),
// and is fn's error verbatim if fn rejects a record. fn is never
// called with bytes past the first damage: each record's CRC is
// verified before delivery.
//
// The function is pure with respect to the Log — FuzzWALReplay drives
// it directly with the wire fuzz corpus and mutated segments.
func DecodeSegment(r io.Reader, limit uint32, fn func(stream string, envelope []byte) error) (records, clean int64, err error) {
	fr := wire.NewReader(bufio.NewReaderSize(r, 64<<10), limit)
	for {
		t, payload, rerr := fr.Next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
				return records, clean, nil
			}
			return records, clean, fmt.Errorf("%w: record %d at offset %d: %w", ErrDamaged, records, clean, rerr)
		}
		stream, envelope, perr := wire.DecodePush(t, payload)
		if perr != nil {
			return records, clean, fmt.Errorf("%w: record %d at offset %d: %w", ErrDamaged, records, clean, perr)
		}
		if ferr := fn(stream, envelope); ferr != nil {
			return records, clean, ferr
		}
		records++
		clean += int64(len(fr.Frame()))
	}
}

// ReplayStats summarizes one recovery pass.
type ReplayStats struct {
	// SnapshotGroups is how many group envelopes the snapshot restored.
	SnapshotGroups int64
	// Records counts the segment records replayed after it, and Bytes
	// the frames replayed from the snapshot and the segments together,
	// each frame counted whole as it lies on disk.
	Records int64
	Bytes   int64
	// Damaged reports that replay hit a damaged record mid-log and
	// stopped cleanly at the boundary before it; DamagedFile names the
	// file. (The active segment's torn tail was already truncated at
	// Open and does not set this.) The server responds by snapshotting
	// immediately, which supersedes the unreadable suffix.
	Damaged     bool
	DamagedFile string
}

// Replay feeds every recovered record (stream name plus envelope) to
// fn, snapshot first (one merged envelope per group), then the
// surviving segments in order. An envelope is valid only until fn
// returns (see DecodeSegment). It must run to completion before the
// first append; until it has, AppendNamed and AppendFrame refuse
// with ErrNotReplayed.
//
// A damaged record mid-log stops replay cleanly at the last good
// boundary (reported in ReplayStats, not as an error): everything
// before the damage is restored, nothing after it is interpreted. An
// error from fn or from the wal/replay failpoint aborts recovery —
// the coordinator refuses to serve rather than serve partial state.
func (l *Log) Replay(fn func(stream string, envelope []byte) error) (ReplayStats, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ReplayStats{}, ErrClosed
	}
	if l.replayed {
		l.mu.Unlock()
		return ReplayStats{}, errors.New("wal: replay ran twice")
	}
	l.mu.Unlock()

	var st ReplayStats
	if l.replaySnap != "" {
		n, err := l.replayFile(l.replaySnap, fn)
		st.SnapshotGroups = n
		if err != nil {
			if !errors.Is(err, ErrDamaged) {
				return st, err
			}
			// A damaged snapshot cannot be skipped — the segments it
			// superseded are gone — so restore what it held up to the
			// damage and stop; the immediate re-snapshot rewrites it.
			st.Damaged, st.DamagedFile = true, filepath.Base(l.replaySnap)
		}
		l.replayedGroups.Store(n)
	}
	if !st.Damaged {
		for _, idx := range l.replaySegs {
			path := filepath.Join(l.dir, segName(idx))
			n, err := l.replayFile(path, fn)
			st.Records += n
			if err != nil {
				if !errors.Is(err, ErrDamaged) {
					return st, err
				}
				st.Damaged, st.DamagedFile = true, segName(idx)
				break
			}
		}
	}

	l.mu.Lock()
	l.replayed = true
	l.mu.Unlock()
	l.replayedRecords.Store(st.Records)
	st.Bytes = l.replayedBytes.Load()
	return st, nil
}

// replayFile streams one snapshot or segment file through fn.
func (l *Log) replayFile(path string, fn func(stream string, envelope []byte) error) (int64, error) {
	if err := failpoint.Inject(failpoint.WALReplay); err != nil {
		return 0, fmt.Errorf("wal: replay %s: %w", filepath.Base(path), err)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// The active segment the Open scan listed but never wrote:
			// nothing to restore from it.
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	// clean is the length of the frames delivered, a named record's
	// stream name included.
	records, clean, derr := DecodeSegment(f, l.limit(), fn)
	l.replayedBytes.Add(clean)
	return records, derr
}
