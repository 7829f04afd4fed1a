package lockorder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

func testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestLockorder pins the four scenarios the whole-module analysis
// exists for: a cross-package ordering cycle (closed in locks/c using
// the LockGraph fact exported by locks/b and the GuardedMutexes fact
// from locks/a), self-deadlocks (direct re-lock, via a local callee,
// and via an imported LockSummary fact), blocking-while-locked (direct
// ops, a cross-package call classified through its fact, and a
// `// locked:` seeded held set), and the lockorder:allow escape (with
// and without the mandatory reason). The guards: checks have their own
// golden test, lockcheck.TestLockcheck.
func TestLockorder(t *testing.T) {
	analysistest.Run(t, testdata(t), lockorder.Analyzer,
		"repro/internal/locks/a",
		"repro/internal/locks/b",
		"repro/internal/locks/c",
		"repro/internal/locks/blocking",
		"repro/internal/locks/held",
	)
}
