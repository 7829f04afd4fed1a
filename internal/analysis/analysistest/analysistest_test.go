package analysistest

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCheck drives the matcher with synthetic go vet output over a
// two-package testdata module: repro/p holds three wants, and repro/q
// is a dependency the run does not name.
func TestCheck(t *testing.T) {
	src := t.TempDir()
	for name, contents := range map[string]string{
		"p/p.go": "package p\n\nfunc F() {} // want \"first\"\n\nfunc G() {} // want \"second\" \"third\"\n",
		"q/q.go": "package q\n\nfunc H() {}\n",
	} {
		if err := os.MkdirAll(filepath.Join(src, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(src, name), []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &module{path: "repro", src: src, copy: "/vet/copy"}
	p := filepath.Join(src, "p", "p.go")
	// go vet prints a path relative to its directory, with or without
	// "./", or an absolute one.
	matched := "# repro/p\n" +
		"p/p.go:3:6: [lint] the first finding\n" +
		"./p/p.go:5:6: [lint] second\n" +
		"/vet/copy/p/p.go:5:6: [lint] third\n"
	for _, c := range []struct {
		name, out string
		want      []string
	}{
		{"every want matched", matched, nil},
		{"unmatched want",
			"# repro/p\np/p.go:3:6: [lint] first\np/p.go:5:6: [lint] second\n",
			[]string{p + `:5: no diagnostic matched want "third"`}},
		{"finding with no want",
			matched + "p/p.go:1:1: [lint] stray\n",
			[]string{p + ":1: unexpected diagnostic: [lint] stray"}},
		{"finding on a want's line that matches none of its regexps",
			matched + "p/p.go:3:6: [lint] fourth\n",
			[]string{p + ":3: unexpected diagnostic: [lint] fourth"}},
		{"other analyzers and unnamed packages ignored",
			matched + "p/p.go:1:1: [other] not ours\n# repro/q\nq/q.go:3:6: [lint] a dependency's finding\n",
			nil},
		{"type error fails the run",
			matched + "unionlint: typecheck repro/p: /vet/copy/p/p.go:3:13: undefined: x\n",
			[]string{"go vet: unionlint: typecheck repro/p: " + p + ":3:13: undefined: x"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := m.check("lint", []string{"repro/p"}, []byte(c.out)); !slices.Equal(got, c.want) {
				t.Errorf("check:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
