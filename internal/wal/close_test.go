package wal

import (
	"os"
	"testing"
)

// TestCloseReportsFailedSync swaps the active segment for the write
// end of a pipe, on which fsync fails (EINVAL) and close succeeds:
// Close must still report the failed sync, since for a SyncNever log
// it is the only sync the segment's tail gets.
func TestCloseReportsFailedSync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l.mu.Lock()
	seg := l.f
	l.f = w
	l.mu.Unlock()
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close returned nil after the segment's fsync failed")
	}
}
