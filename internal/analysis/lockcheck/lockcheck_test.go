package lockcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

// TestLockcheck runs lockorder over lockedpkg: guarded field accesses
// with and without a lock or `// locked:` annotation, nested function
// literals, RWMutex read locks, and guards: lists on a non-mutex field
// or naming a missing field.
func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lockedpkg")
}
