package driver_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetFactsRoundTrip proves the package-fact protocol end to end
// under `go vet -vettool`: in a temp module, package b establishes the
// lock-ordering edge Beta.mu → Alpha.Mu and exports it in its
// LockGraph fact, and package c closes the cycle by taking Beta.mu
// while holding Alpha.Mu. Neither package shows the cycle alone, so
// its report at all shows b's fact reached c through the .vetx files.
// The second run re-analyzes only the (touched) c, whose imports' facts
// now come from go's vet cache — the cycle surviving that run is the
// round-trip.
func TestVetFactsRoundTrip(t *testing.T) {
	_, bin := buildUnionlint(t)

	tmod := t.TempDir()
	writeTree(t, tmod, map[string]string{
		"go.mod": "module tmod\n\ngo 1.22\n",
		"a/a.go": `// Package a owns an exported guarded mutex.
package a

import "sync"

type Alpha struct {
	Mu sync.Mutex // guards: N
	N  int
}

var Shared Alpha

// LockA takes Alpha.Mu.
func LockA() {
	Shared.Mu.Lock()
	Shared.N++
	Shared.Mu.Unlock()
}
`,
		"b/b.go": `// Package b establishes the Beta.mu → Alpha.Mu edge.
package b

import (
	"sync"

	"tmod/a"
)

type Beta struct {
	mu sync.Mutex // guards: n
	n  int
}

var shared Beta

// BThenA calls into a while holding Beta.mu.
func BThenA() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	a.LockA()
}

// LockB takes only Beta.mu.
func LockB() {
	shared.mu.Lock()
	shared.n++
	shared.mu.Unlock()
}
`,
		"c/c.go": `// Package c closes the cycle: Beta.mu while holding Alpha.Mu.
package c

import (
	"tmod/a"
	"tmod/b"
)

func AThenB() {
	a.Shared.Mu.Lock()
	defer a.Shared.Mu.Unlock()
	b.LockB()
}
`,
	})

	vet := func() string {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = tmod
		out, _ := cmd.CombinedOutput()
		return string(out)
	}

	const cycle = "lock ordering cycle: a.Alpha.Mu → b.Beta.mu → a.Alpha.Mu"
	out1 := vet()
	if !strings.Contains(out1, cycle) {
		t.Fatalf("first vet run: cycle not reported\noutput:\n%s", out1)
	}
	// Rewrite c (content change, so its vet action re-runs) without
	// touching a or b: b's LockGraph fact must now come back out of
	// the cached .vetx files.
	cfile := filepath.Join(tmod, "c", "c.go")
	src, err := os.ReadFile(cfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfile, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := vet()
	if !strings.Contains(out2, cycle) {
		t.Fatalf("second vet run: cycle lost after cache round-trip\noutput:\n%s", out2)
	}
}

// TestFixEndToEnd runs unionlint itself, not bare go vet, on a temp
// module holding errcontract's -fix golden package (whose fixed
// contents errcontract's RunFixes golden checks): before the fix it
// must fail and summarize the three findings per analyzer, `unionlint
// -fix` must exit 0, and a plain run after it must be clean.
func TestFixEndToEnd(t *testing.T) {
	root, bin := buildUnionlint(t)
	src, err := os.ReadFile(filepath.Join(root, "internal", "analysis", "errcontract", "testdata", "src", "repro", "internal", "wire", "fixme", "fixme.go"))
	if err != nil {
		t.Fatal(err)
	}

	tmod := t.TempDir()
	writeTree(t, tmod, map[string]string{
		"go.mod":                       "module tmod\n\ngo 1.22\n",
		"internal/wire/fixme/fixme.go": string(src),
	})
	unionlint := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = tmod
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := unionlint("./...")
	if err == nil || !strings.Contains(out, "-- errcontract: 3 finding(s)") {
		t.Fatalf("unionlint before -fix: err=%v, want a failure summarizing 3 errcontract findings\noutput:\n%s", err, out)
	}
	if out, err := unionlint("-fix", "./..."); err != nil {
		t.Fatalf("unionlint -fix: %v\noutput:\n%s", err, out)
	}
	if out, err := unionlint("./..."); err != nil {
		t.Fatalf("unionlint after -fix: %v\noutput:\n%s", err, out)
	}
}

// buildUnionlint builds cmd/unionlint into a temp directory and returns
// the repository root and the binary.
func buildUnionlint(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "unionlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/unionlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building unionlint: %v\n%s", err, out)
	}
	return root, bin
}

// writeTree writes files (path → contents) under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for path, contents := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
