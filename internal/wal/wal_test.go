package wal_test

// Unit suite for the durability layer in isolation: append/replay
// round-trips, segment rotation, snapshot+prune, torn-tail truncation
// at Open, and the replay-before-append discipline. The server-level
// crash matrix (internal/server/recovery_test.go) exercises the same
// machinery end to end through failpoints.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/wal"
	"repro/internal/wire"
)

// walEnvelopes builds n envelopes in n distinct kmv merge groups.
func walEnvelopes(t *testing.T, n int) [][]byte {
	t.Helper()
	envs := make([][]byte, n)
	for i := range envs {
		sk := kmv.New(4, uint64(7000+i))
		for x := uint64(0); x < 16; x++ {
			sk.Process(x*11 + uint64(i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	return envs
}

// openReplayed opens a log in dir and runs an empty-log replay so
// appends are allowed.
func openReplayed(t *testing.T, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return l
}

// collect replays a fresh Open of dir and returns the envelopes in
// replay order.
func collect(t *testing.T, dir string, opts wal.Options) (*wal.Log, [][]byte, wal.ReplayStats) {
	t.Helper()
	l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	st, err := l.Replay(func(_ string, env []byte) error {
		got = append(got, append([]byte(nil), env...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 8)
	l := openReplayed(t, dir, wal.Options{})
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, st := collect(t, dir, wal.Options{})
	defer l2.Close()
	if len(got) != len(envs) {
		t.Fatalf("replayed %d records, appended %d", len(got), len(envs))
	}
	for i := range envs {
		if !bytes.Equal(got[i], envs[i]) {
			t.Fatalf("record %d: replay differs from append", i)
		}
	}
	if st.Damaged {
		t.Fatalf("clean log reported damage in %s", st.DamagedFile)
	}
	if st.Records != int64(len(envs)) {
		t.Fatalf("ReplayStats.Records = %d, want %d", st.Records, len(envs))
	}
}

func TestAppendBeforeReplayRefused(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendNamed("", []byte("x")); !errors.Is(err, wal.ErrNotReplayed) {
		t.Fatalf("append before replay: err = %v, want ErrNotReplayed", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 12)
	// Rotate roughly every other record.
	opts := wal.Options{SegmentBytes: int64(2 * (len(envs[0]) + wire.HeaderSize))}
	l := openReplayed(t, dir, opts)
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after %d appends with SegmentBytes=%d", len(envs), opts.SegmentBytes)
	}
	if st.LiveSegments < 2 {
		t.Fatalf("LiveSegments = %d after rotation", st.LiveSegments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must stitch the segments back together in order.
	l2, got, _ := collect(t, dir, opts)
	defer l2.Close()
	if len(got) != len(envs) {
		t.Fatalf("replayed %d records across segments, appended %d", len(got), len(envs))
	}
	for i := range envs {
		if !bytes.Equal(got[i], envs[i]) {
			t.Fatalf("record %d out of order or damaged after rotation", i)
		}
	}
}

func TestSnapshotPrunesAndReplays(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 6)
	opts := wal.Options{SegmentBytes: int64(2 * (len(envs[0]) + wire.HeaderSize))}
	l := openReplayed(t, dir, opts)
	for _, env := range envs[:4] {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot "merged state" standing in for the first four records.
	cut := l.CurrentSegment()
	if err := l.Snapshot(cut, records(envs[:4])); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Snapshots != 1 || st.LastSnapshotGroups != 4 {
		t.Fatalf("snapshot stats = %+v", st)
	}
	if st.PrunedSegments == 0 {
		t.Fatalf("snapshot at cut %d pruned nothing (stats %+v)", cut, st)
	}
	// Tail records after the snapshot.
	for _, env := range envs[4:] {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, rst := collect(t, dir, opts)
	defer l2.Close()
	if rst.SnapshotGroups != 4 {
		t.Fatalf("replayed %d snapshot groups, want 4", rst.SnapshotGroups)
	}
	// Snapshot first, then the surviving tail; the tail may also
	// re-deliver pre-snapshot records from the cut segment — the
	// at-least-once overlap idempotent joins absorb. Every envelope we
	// appended must appear at least once.
	seen := make(map[string]bool, len(got))
	for _, env := range got {
		seen[string(env)] = true
	}
	for i, env := range envs {
		if !seen[string(env)] {
			t.Fatalf("record %d lost across snapshot+replay", i)
		}
	}
}

func TestSnapshotCutBehindLiveRefused(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, wal.Options{})
	defer l.Close()
	if err := l.Snapshot(l.CurrentSegment(), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(l.CurrentSegment()-1, nil); err == nil {
		t.Fatal("snapshot with a stale cut was accepted")
	}
}

func TestTornTailTruncatedAtOpen(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 3)
	l := openReplayed(t, dir, wal.Options{})
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-frame, the shape a crash mid-append
	// leaves on disk.
	seg := onlySegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got, st := collect(t, dir, wal.Options{})
	defer l2.Close()
	if len(got) != len(envs)-1 {
		t.Fatalf("replayed %d records after torn tail, want %d", len(got), len(envs)-1)
	}
	if st.Damaged {
		t.Fatal("a truncated tail must be cut at Open, not reported as mid-log damage")
	}
	if l2.Stats().TruncatedTailBytes == 0 {
		t.Fatal("TruncatedTailBytes = 0 after torn-tail recovery")
	}
	// The log must accept appends right where the clean prefix ends.
	if err := l2.AppendNamed("", envs[2]); err != nil {
		t.Fatal(err)
	}
}

func TestMidLogDamageStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 4)
	l := openReplayed(t, dir, wal.Options{})
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit in the SECOND record: the CRC catches it, and
	// replay must deliver record 1 then stop — never interpreting the
	// damaged record or anything after it.
	seg := onlySegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rec := wire.HeaderSize + len(envs[0])
	b[rec+wire.HeaderSize+3] ^= 0x40
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got, _ := collect(t, dir, wal.Options{})
	defer l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], envs[0]) {
		t.Fatalf("replayed %d records past mid-log damage, want exactly the first", len(got))
	}
	if l2.Stats().TruncatedTailBytes == 0 {
		t.Fatal("bit-flip damage reached replay instead of being truncated at Open")
	}
}

func TestCrashLeftoversCollectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 2)
	l := openReplayed(t, dir, wal.Options{})
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	cut := l.CurrentSegment()
	if err := l.Snapshot(cut, records(envs)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant the debris a crash can leave: a half-written temp
	// snapshot, and a stale segment below the live cut (as if the
	// crash hit between rename and prune).
	if err := os.WriteFile(filepath.Join(dir, "snap-99999999.snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "wal-00000000.seg")
	if err := os.WriteFile(stale, wire.EncodeFrame(wire.MsgPush, envs[0]), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got, _ := collect(t, dir, wal.Options{})
	defer l2.Close()
	if len(got) < 2 {
		t.Fatalf("replayed %d records, want the 2 snapshot groups", len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp snapshot %s survived Open", e.Name())
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale pre-snapshot segment survived Open (err=%v)", err)
	}
}

// TestReplayedBytesCountWholeFrames checks that replay counts each
// record's whole frame, a named record's stream name included, from
// the snapshot and the segments alike: a reopened log reports as many
// replayed bytes as its files hold.
func TestReplayedBytesCountWholeFrames(t *testing.T) {
	dir := t.TempDir()
	env := bytes.Repeat([]byte{7}, 20)
	l := openReplayed(t, dir, wal.Options{})
	for _, stream := range []string{"", "clicks", "views"} {
		if err := l.AppendNamed(stream, env); err != nil {
			t.Fatal(err)
		}
	}
	appended := l.Stats().AppendedBytes
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, st := collect(t, dir, wal.Options{})
	if got := l2.Stats().ReplayedBytes; got != appended || st.Bytes != appended {
		t.Errorf("replayed %d bytes (ReplayStats.Bytes %d), appended %d", got, st.Bytes, appended)
	}

	snap := []wal.Record{{Stream: "clicks", Envelope: env}, {Envelope: env}}
	if err := l2.Snapshot(l2.CurrentSegment(), snap); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	l3, _, st := collect(t, dir, wal.Options{})
	defer l3.Close()
	if st.SnapshotGroups != int64(len(snap)) {
		t.Fatalf("replayed %d snapshot records, want %d", st.SnapshotGroups, len(snap))
	}
	if got := l3.Stats().ReplayedBytes; got != onDisk || st.Bytes != onDisk {
		t.Errorf("replayed %d bytes (ReplayStats.Bytes %d) of a snapshot and a segment holding %d", got, st.Bytes, onDisk)
	}
}

func TestReplayTwiceRefused(t *testing.T) {
	l := openReplayed(t, t.TempDir(), wal.Options{})
	defer l.Close()
	if _, err := l.Replay(func(string, []byte) error { return nil }); err == nil {
		t.Fatal("second Replay on the same Log was accepted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want wal.SyncPolicy
		ok   bool
	}{
		{"always", wal.SyncAlways, true},
		{"never", wal.SyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := wal.ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if s := wal.SyncAlways.String(); s != "always" {
		t.Errorf("SyncAlways.String() = %q", s)
	}
}

// onlySegment returns the path of the single segment file in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment, got %v (err=%v)", matches, err)
	}
	return matches[0]
}

// records wraps plain envelopes as default-stream snapshot records.
func records(envs [][]byte) []wal.Record {
	out := make([]wal.Record, len(envs))
	for i, env := range envs {
		out[i] = wal.Record{Envelope: env}
	}
	return out
}

// TestRotateErrorCountedAppendSucceeds: a failed rotation must not
// fail the append that triggered it (its record is already written),
// but it must be counted and recorded in Stats, and the next append
// after the fault clears must rotate the oversized segment.
func TestRotateErrorCountedAppendSucceeds(t *testing.T) {
	injected := errors.New("injected rotate failure")
	failpoint.Enable(failpoint.WALRotate, failpoint.Error(injected))
	defer failpoint.Disable(failpoint.WALRotate)

	envs := walEnvelopes(t, 4)
	// Every append fills its segment.
	opts := wal.Options{SegmentBytes: int64(len(envs[0]) + wire.HeaderSize)}
	l := openReplayed(t, t.TempDir(), opts)
	defer l.Close()
	for i, env := range envs[:3] {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatalf("append %d failed with rotation faulted: %v", i, err)
		}
	}
	st := l.Stats()
	if st.RotateErrors != 3 || st.Rotations != 0 || st.AppendedRecords != 3 {
		t.Fatalf("after 3 faulted rotations: RotateErrors=%d Rotations=%d AppendedRecords=%d, want 3, 0, 3",
			st.RotateErrors, st.Rotations, st.AppendedRecords)
	}
	if !strings.Contains(st.LastRotateError, injected.Error()) {
		t.Fatalf("LastRotateError = %q, want the injected error", st.LastRotateError)
	}

	failpoint.Disable(failpoint.WALRotate)
	if err := l.AppendNamed("", envs[3]); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rotations != 1 || st.RotateErrors != 3 {
		t.Fatalf("after the fault cleared: Rotations=%d RotateErrors=%d, want 1, 3", st.Rotations, st.RotateErrors)
	}
}

// TestFailedFsyncRefusesLaterAppends: after a failed per-append
// fsync the kernel may have dropped the record's dirty pages while a
// later fsync still succeeds, so a later acked record could sit behind
// a damaged one that replay stops at. Every later append must write
// nothing and return an error wrapping the first failure; Snapshot and
// Close keep working, and a reopened log replays and accepts appends.
func TestFailedFsyncRefusesLaterAppends(t *testing.T) {
	injected := errors.New("injected fsync failure")
	failpoint.Enable(failpoint.WALFsync, failpoint.Times(1, injected))
	defer failpoint.Disable(failpoint.WALFsync)

	dir := t.TempDir()
	envs := walEnvelopes(t, 3)
	l := openReplayed(t, dir, wal.Options{Sync: wal.SyncAlways})
	if err := l.AppendNamed("clicks", envs[0]); !errors.Is(err, injected) {
		t.Fatalf("append with the fsync faulted: err = %v, want the injected error", err)
	}
	if err := l.AppendNamed("clicks", envs[1]); !errors.Is(err, injected) {
		t.Fatalf("append after a failed fsync: err = %v, want a refusal wrapping the injected error", err)
	}
	if st := l.Stats(); st.AppendedRecords != 1 || st.Fsyncs != 0 {
		t.Fatalf("AppendedRecords=%d Fsyncs=%d, want 1, 0: a refused append must write nothing",
			st.AppendedRecords, st.Fsyncs)
	}
	if err := l.Snapshot(l.CurrentSegment(), []wal.Record{{Stream: "clicks", Envelope: envs[0]}}); err != nil {
		t.Fatalf("snapshot after a failed fsync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after a failed fsync: %v", err)
	}

	l, got, _ := collect(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l.Close()
	for _, env := range got {
		if bytes.Equal(env, envs[1]) {
			t.Fatal("the refused append reached the log")
		}
	}
	if err := l.AppendNamed("clicks", envs[2]); err != nil {
		t.Fatalf("append to the reopened log: %v", err)
	}
}

// TestDirSyncErrorStopsSnapshotPrune: until the directory entry for a
// snapshot's rename is synced, a power cut can lose the snapshot, so a
// failed directory sync must fail the snapshot before it prunes the
// segments the snapshot would supersede.
func TestDirSyncErrorStopsSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	envs := walEnvelopes(t, 4)
	// Every append fills its segment.
	opts := wal.Options{SegmentBytes: int64(len(envs[0]) + wire.HeaderSize)}
	l := openReplayed(t, dir, opts)
	defer l.Close()
	for _, env := range envs {
		if err := l.AppendNamed("", env); err != nil {
			t.Fatal(err)
		}
	}
	segs := func() []string {
		matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	before := segs()

	injected := errors.New("injected dir sync failure")
	failpoint.Enable(failpoint.WALDirSync, failpoint.Error(injected))
	defer failpoint.Disable(failpoint.WALDirSync)
	cut := l.CurrentSegment()
	if err := l.Snapshot(cut, records(envs)); !errors.Is(err, injected) {
		t.Fatalf("snapshot with the directory sync faulted: err = %v, want the injected error", err)
	}
	if hits := failpoint.Hits(failpoint.WALDirSync); hits != 1 {
		t.Fatalf("wal/dirsync fired %d times, want 1", hits)
	}
	if after := segs(); len(after) != len(before) || uint64(len(before)) != cut {
		t.Fatalf("segments before the snapshot %v, after %v; want all %d up to cut %d kept", before, after, cut, cut)
	}
	if st := l.Stats(); st.PrunedSegments != 0 {
		t.Fatalf("PrunedSegments = %d after a snapshot whose directory sync failed", st.PrunedSegments)
	}
}

// TestDirSyncErrorCountedAsRotateError: a rotation whose directory
// sync fails has already switched segments, so the append that
// triggered it succeeds, and the failure is counted in RotateErrors.
func TestDirSyncErrorCountedAsRotateError(t *testing.T) {
	injected := errors.New("injected dir sync failure")
	failpoint.Enable(failpoint.WALDirSync, failpoint.Error(injected))
	defer failpoint.Disable(failpoint.WALDirSync)

	envs := walEnvelopes(t, 1)
	opts := wal.Options{SegmentBytes: int64(len(envs[0]) + wire.HeaderSize)}
	l := openReplayed(t, t.TempDir(), opts)
	defer l.Close()
	if err := l.AppendNamed("", envs[0]); err != nil {
		t.Fatalf("append failed with the directory sync faulted: %v", err)
	}
	if hits := failpoint.Hits(failpoint.WALDirSync); hits != 1 {
		t.Fatalf("wal/dirsync fired %d times, want 1", hits)
	}
	st := l.Stats()
	if st.RotateErrors != 1 || st.Rotations != 1 || st.AppendedRecords != 1 {
		t.Fatalf("RotateErrors=%d Rotations=%d AppendedRecords=%d, want 1, 1, 1",
			st.RotateErrors, st.Rotations, st.AppendedRecords)
	}
	if !strings.Contains(st.LastRotateError, injected.Error()) {
		t.Fatalf("LastRotateError = %q, want the injected error", st.LastRotateError)
	}
}
