// Package analysistest runs an analyzer's golden tests the way CI runs
// the analyzers, after the pattern of golang.org/x/tools'
// go/analysis/analysistest: it copies a testdata module to a temporary
// directory, builds unionlint from the checkout, runs it there as
// `go vet -vettool`, and checks the analyzer's findings against
// `// want` comments. The goldens thus go through the front end
// `unionlint ./...` uses: the vet config's export data, the .vetx files
// that carry facts from a package's imports, and the on-disk -fix.
//
// Layout: testdata/src/<module>/..., one module per testdata tree. A
// package keeps its import path (testdata/src/repro/internal/wire/errs
// is repro/internal/wire/errs), so scope-sensitive analyzers see
// realistic paths. Expectations are comments of the form
//
//	expr // want "regexp"
//	expr // want "first" "second"
//
// Every finding of the analyzer in a named package must match a want
// on its line, and every want must be matched by at least one finding.
// Findings of other analyzers, and of packages not named (dependencies
// vet analyzes only for their facts), are ignored. Any other line of
// vet's output, such as a type error, fails the test.
//
// RunFixes runs `go vet -fix` instead, compares each file it changed
// with its <file>.golden sibling, and runs it again: the second run
// type-checks the fixed package and must change nothing.
package analysistest

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// Run vets each pkgPath of the testdata module under dir/src and
// checks a's findings against the want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	m := newModule(t, dir, pkgPaths)
	for _, msg := range m.check(a.Name, pkgPaths, m.vet(t, false, pkgPaths)) {
		t.Error(msg)
	}
}

// RunFixes vets pkgPath with -fix and requires every file the fixes
// changed to equal its <file>.golden sibling. A second -fix run must
// then type-check the fixed package and change nothing.
func RunFixes(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	m := newModule(t, dir, []string{pkgPath})
	m.fix(t, pkgPath)
	names, _ := filepath.Glob(filepath.Join(m.src, m.rel(pkgPath), "*.go"))
	fixed := map[string][]byte{} // file in the copy → its fixed contents
	for _, name := range names {
		file := filepath.Join(m.copy, m.rel(pkgPath), filepath.Base(name))
		got := readFile(t, file)
		if bytes.Equal(got, readFile(t, name)) {
			continue
		}
		fixed[file] = got
		if want, err := os.ReadFile(name + ".golden"); err != nil {
			t.Errorf("%s: missing golden file for fixed output: %v\nfixed contents:\n%s", pkgPath, err, got)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: fixed output differs from %s.golden:\n-- got --\n%s\n-- want --\n%s", name, name, got, want)
		}
	}
	if len(fixed) == 0 {
		t.Fatalf("%s: %s produced no applicable fixes; nothing to test", pkgPath, a.Name)
	}
	m.fix(t, pkgPath)
	for file, before := range fixed {
		if !bytes.Equal(readFile(t, file), before) {
			t.Errorf("%s: fixes are not idempotent: a second -fix changed %s", pkgPath, filepath.Base(file))
		}
	}
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A module is a testdata module and the temporary copy go vet runs in.
type module struct {
	path string // module path: the first element of every package path
	src  string // the testdata tree, dir/src/<path>
	copy string // the copy, with a go.mod added
	tool string // the unionlint binary
}

// newModule copies the testdata module holding pkgPaths, gives the
// copy a go.mod, and builds unionlint.
func newModule(t *testing.T, dir string, pkgPaths []string) *module {
	t.Helper()
	if len(pkgPaths) == 0 {
		t.Fatal("analysistest: no packages named")
	}
	modPath, _, _ := strings.Cut(pkgPaths[0], "/")
	m := &module{path: modPath, src: filepath.Join(dir, "src", modPath), copy: t.TempDir()}
	for _, p := range pkgPaths {
		if p != modPath && !strings.HasPrefix(p, modPath+"/") {
			t.Fatalf("analysistest: %s is not in testdata module %s", p, modPath)
		}
	}
	if err := copyTree(m.src, m.copy); err != nil {
		t.Fatal(err)
	}
	// The repository's go version, so testdata type-checks as the tree does.
	gomod := fmt.Sprintf("module %s\n\ngo 1.22\n", modPath)
	if err := os.WriteFile(filepath.Join(m.copy, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	m.tool = filepath.Join(t.TempDir(), "unionlint")
	if out, err := goCmd("", "build", "-o", m.tool, "repro/cmd/unionlint").CombinedOutput(); err != nil {
		t.Fatalf("building unionlint: %v\n%s", err, out)
	}
	return m
}

// rel returns the directory of package pkgPath relative to the module
// root ("." for the root package).
func (m *module) rel(pkgPath string) string {
	if pkgPath == m.path {
		return "."
	}
	return filepath.FromSlash(strings.TrimPrefix(pkgPath, m.path+"/"))
}

// vet runs `go vet -vettool=unionlint [-fix] pkgPaths` in the copy and
// returns its output. Its exit status says only whether there were
// findings; check reads every line.
func (m *module) vet(t *testing.T, fix bool, pkgPaths []string) []byte {
	t.Helper()
	args := []string{"vet", "-vettool=" + m.tool}
	if fix {
		args = append(args, "-fix")
	}
	out, err := goCmd(m.copy, append(args, pkgPaths...)...).CombinedOutput()
	if err != nil && !errors.As(err, new(*exec.ExitError)) {
		t.Fatalf("go vet: %v", err)
	}
	return out
}

// fix runs `go vet -fix` on pkgPath and fails the test on any output
// line that is not a finding, such as a type error in fixed code.
func (m *module) fix(t *testing.T, pkgPath string) {
	t.Helper()
	if errs := m.check("", nil, m.vet(t, true, []string{pkgPath})); len(errs) > 0 {
		t.Fatalf("%s: go vet -fix:\n%s", pkgPath, strings.Join(errs, "\n"))
	}
}

// goCmd returns a go command run in dir ("" for the test's own
// directory) that neither a developer's environment nor the network
// can steer: no workspace, no GOFLAGS, the local toolchain, no proxy.
func goCmd(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local", "GOPROXY=off")
	return cmd
}

// copyTree copies the files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// check matches vet's output, from a run in the copy, against the want
// comments of the named packages' testdata files. It returns one
// message per mismatch and per output line that is neither a finding
// nor a "# package" header, each naming testdata files, not the copy.
func (m *module) check(analyzer string, pkgPaths []string, out []byte) []string {
	wants, errs := m.wants(pkgPaths)
	for _, l := range strings.Split(string(out), "\n") {
		if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "# ") {
			continue
		}
		loc, name, msg, ok := driver.ParseVetLine(l)
		file, line, lok := splitLoc(loc)
		if !ok || !lok {
			errs = append(errs, "go vet: "+strings.ReplaceAll(l, m.copy, m.src))
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(m.copy, file)
		}
		rel, err := filepath.Rel(m.copy, file)
		if err != nil || name != analyzer || !slices.Contains(pkgPaths, path.Join(m.path, filepath.ToSlash(filepath.Dir(rel)))) {
			continue
		}
		key := fmt.Sprintf("%s:%d", filepath.Join(m.src, rel), line)
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(msg) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			errs = append(errs, fmt.Sprintf("%s: unexpected diagnostic: [%s] %s", key, name, msg))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				errs = append(errs, fmt.Sprintf("%s: no diagnostic matched want %q", key, w.raw))
			}
		}
	}
	slices.Sort(errs)
	return errs
}

// splitLoc splits a "file:line:col" location into its file and line.
func splitLoc(loc string) (file string, line int, ok bool) {
	parts := strings.Split(loc, ":")
	if len(parts) < 3 {
		return "", 0, false
	}
	line, err := strconv.Atoi(parts[len(parts)-2])
	return strings.Join(parts[:len(parts)-2], ":"), line, err == nil
}

// want is one expectation.
type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wants collects the want comments of the named packages' testdata
// files by "file:line", returning a message for each package with no
// Go files and for each malformed comment.
func (m *module) wants(pkgPaths []string) (map[string][]*want, []string) {
	fset := token.NewFileSet()
	wants := map[string][]*want{}
	var errs []string
	for _, p := range pkgPaths {
		files, _ := filepath.Glob(filepath.Join(m.src, m.rel(p), "*.go"))
		if len(files) == 0 {
			errs = append(errs, fmt.Sprintf("%s: no Go files in %s", p, filepath.Join(m.src, m.rel(p))))
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					ws, err := parseWants(text)
					if err != nil {
						errs = append(errs, fmt.Sprintf("%s: bad want comment: %v", pos, err))
						continue
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], ws...)
				}
			}
		}
	}
	return wants, errs
}

// parseWants parses a sequence of quoted regexps.
func parseWants(s string) ([]*want, error) {
	var out []*want
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		raw, _ := strconv.Unquote(q)
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, &want{re: re, raw: raw})
		s = s[len(q):]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want")
	}
	return out, nil
}
