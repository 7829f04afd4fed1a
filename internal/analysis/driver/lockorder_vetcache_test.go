package driver_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetLockSummaryRoundTrip proves lockorder's LockSummary object
// facts survive go vet's .vetx cache: package x exports a function
// whose summary says "blocks" (it sleeps), package y calls it while
// holding a guards-annotated mutex. The diagnostic in y depends
// entirely on x's fact. The second run touches only y, so x's summary
// must come back out of the cached .vetx file for the diagnostic to
// survive.
func TestVetLockSummaryRoundTrip(t *testing.T) {
	_, bin := buildUnionlint(t)

	tmod := t.TempDir()
	writeTree(t, tmod, map[string]string{
		"go.mod": "module tmod\n\ngo 1.22\n",
		"x/x.go": `// Package x exports a blocking push, like the real client.
package x

import "time"

// SlowPush stalls like a network round trip.
func SlowPush() {
	time.Sleep(time.Millisecond)
}
`,
		"y/y.go": `// Package y holds an annotated mutex across the blocking call.
package y

import (
	"sync"

	"tmod/x"
)

type Shard struct {
	mu sync.Mutex // guards: n
	n  int
}

var shared Shard

// Flush blocks while locked; only x.SlowPush's LockSummary fact makes
// that visible here.
func Flush() {
	shared.mu.Lock()
	x.SlowPush()
	shared.mu.Unlock()
}
`,
	})

	vet := func() string {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = tmod
		out, _ := cmd.CombinedOutput()
		return string(out)
	}

	const finding = "Flush calls x.SlowPush, which calls time.Sleep, while holding y.Shard.mu"
	out1 := vet()
	if !strings.Contains(out1, finding) {
		t.Fatalf("first vet run: blocking-while-locked not reported\noutput:\n%s", out1)
	}
	// Rewrite y (content change, so its vet action re-runs) without
	// touching x: SlowPush's LockSummary must now come back out of the
	// cached .vetx file.
	yfile := filepath.Join(tmod, "y", "y.go")
	src, err := os.ReadFile(yfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(yfile, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := vet()
	if !strings.Contains(out2, finding) {
		t.Fatalf("second vet run: blocking-while-locked lost after cache round-trip\noutput:\n%s", out2)
	}
}
