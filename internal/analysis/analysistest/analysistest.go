// Package analysistest runs an analyzer over golden packages under a
// testdata directory and checks its diagnostics against `// want`
// comments, after the pattern of golang.org/x/tools'
// go/analysis/analysistest.
//
// Layout: testdata/src/<import/path>/*.go, loaded as package
// <import/path> (so scope-sensitive analyzers see realistic paths).
// Imports between testdata packages are resolved from source,
// recursively, within one shared fact store — so fact-driven analyzers
// (lockorder, mergepure) see their dependencies' facts exactly
// as the vet driver delivers them. Standard-library imports resolve
// through the build cache. Expectations are comments of the form
//
//	expr // want "regexp"
//	expr // want "first" "second"
//
// Every diagnostic must match a want on its line, and every want must
// be matched by at least one diagnostic. Dependency packages loaded
// only as imports are analyzed too (their facts are needed) but their
// wants are checked only when the package is named in the Run call.
//
// RunFixes additionally applies the analyzer's suggested fixes in
// memory and compares the result against <file>.golden siblings,
// re-analyzes the fixed sources to prove the fixes compile, and checks
// that a second application changes nothing (idempotency).
package analysistest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// Run loads each pkgPath from dir/src (with its testdata imports) and
// applies a to it, checking diagnostics against // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(t, dir, a, nil)
	for _, path := range pkgPaths {
		lp := ld.load(path)
		checkWants(t, ld.fset, lp.files, lp.findings)
	}
}

// RunFixes loads pkgPath, applies the analyzer's suggested fixes in
// memory, and for every changed file requires a sibling
// <file>.golden with the expected output. It then re-parses and
// re-typechecks the fixed sources (fixes must never produce
// non-compiling code), re-runs the analyzer over them, and requires
// that applying fixes again yields zero edits (idempotency).
func RunFixes(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld := newLoader(t, dir, a, nil)
	lp := ld.load(pkgPath)
	fixed, n, err := driver.FixedSources(lp.findings)
	if err != nil {
		t.Fatalf("%s: applying fixes: %v", pkgPath, err)
	}
	if n == 0 {
		t.Fatalf("%s: analyzer produced no applicable fixes; nothing to test", pkgPath)
	}
	for name, got := range fixed {
		golden := name + ".golden"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: missing golden file for fixed output: %v\nfixed contents:\n%s", pkgPath, err, got)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fixed output differs from %s:\n-- got --\n%s\n-- want --\n%s",
				name, golden, got, want)
		}
	}
	// Second pass over the fixed sources: must compile, and a second
	// fix application must be a no-op.
	ld2 := newLoader(t, dir, a, fixed)
	lp2 := ld2.load(pkgPath)
	_, n2, err := driver.FixedSourcesFrom(lp2.findings, fixed)
	if err != nil {
		t.Fatalf("%s: re-applying fixes: %v", pkgPath, err)
	}
	if n2 != 0 {
		t.Errorf("%s: fixes are not idempotent: second application produced %d edit(s)", pkgPath, n2)
	}
}

// loadedPkg is one testdata package after parse/typecheck/analysis.
type loadedPkg struct {
	files    []*ast.File
	pkg      *driver.Package
	findings []driver.Finding
}

// loader resolves testdata packages from source (recursively, through
// one shared FileSet and fact store) and stdlib packages from export
// data. overlay maps filename → contents taking precedence over disk,
// so RunFixes can re-analyze fixed sources in place.
type loader struct {
	t        *testing.T
	dir      string
	analyzer *analysis.Analyzer
	fset     *token.FileSet
	store    *driver.FactStore
	gcImp    types.Importer
	overlay  map[string][]byte
	pkgs     map[string]*loadedPkg
	loading  map[string]bool
}

func newLoader(t *testing.T, dir string, a *analysis.Analyzer, overlay map[string][]byte) *loader {
	ld := &loader{
		t:        t,
		dir:      dir,
		analyzer: a,
		fset:     token.NewFileSet(),
		store:    driver.NewFactStore([]*analysis.Analyzer{a}),
		overlay:  overlay,
		pkgs:     map[string]*loadedPkg{},
		loading:  map[string]bool{},
	}
	ld.gcImp = importer.ForCompiler(ld.fset, "gc", importer.Lookup(func(path string) (io.ReadCloser, error) {
		return stdlibExport(t, path)
	}))
	return ld
}

// srcDir returns the on-disk directory for a testdata import path, or
// "" if the path is not provided by this testdata tree.
func (ld *loader) srcDir(pkgPath string) string {
	dir := filepath.Join(ld.dir, "src", filepath.FromSlash(pkgPath))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer over the testdata tree + stdlib.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if ld.srcDir(path) != "" {
		return ld.load(path).pkg.Pkg, nil
	}
	return ld.gcImp.Import(path)
}

// load parses, type-checks, and analyzes one testdata package,
// memoized. Dependencies load (and are analyzed) first via Import, so
// their facts are in the store before the importer's pass runs.
func (ld *loader) load(pkgPath string) *loadedPkg {
	ld.t.Helper()
	if lp, ok := ld.pkgs[pkgPath]; ok {
		return lp
	}
	if ld.loading[pkgPath] {
		ld.t.Fatalf("import cycle in testdata involving %s", pkgPath)
	}
	ld.loading[pkgPath] = true
	defer delete(ld.loading, pkgPath)

	pkgDir := ld.srcDir(pkgPath)
	if pkgDir == "" {
		ld.t.Fatalf("%s: no such testdata package under %s", pkgPath, filepath.Join(ld.dir, "src"))
	}
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		ld.t.Fatalf("%s: %v", pkgPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(pkgDir, e.Name())
		var src any
		if ov, ok := ld.overlay[name]; ok {
			src = ov
		}
		f, err := parser.ParseFile(ld.fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			ld.t.Fatalf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		ld.t.Fatalf("%s: no Go files in %s", pkgPath, pkgDir)
	}
	pkg, err := driver.TypeCheckImporter(ld.fset, pkgPath, files, ld, "")
	if err != nil {
		ld.t.Fatalf("%s: %v", pkgPath, err)
	}
	// Restrict fact visibility to the package's transitive imports,
	// exactly as the vet driver does — a testdata package must not see
	// facts of packages it does not (transitively) import, even when
	// one Run call has already loaded them into the shared store.
	findings, err := driver.RunAnalyzers(pkg, []*analysis.Analyzer{ld.analyzer},
		ld.store.View(pkg.Pkg, depClosure(pkg.Pkg)))
	if err != nil {
		ld.t.Fatalf("%s: %v", pkgPath, err)
	}
	lp := &loadedPkg{files: files, pkg: pkg, findings: findings}
	ld.pkgs[pkgPath] = lp
	return lp
}

// depClosure returns the import paths transitively reachable from pkg.
func depClosure(pkg *types.Package) map[string]bool {
	seen := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp.Path()] {
				seen[imp.Path()] = true
				walk(imp)
			}
		}
	}
	walk(pkg)
	return seen
}

// want is one expectation.
type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

type lineKey struct {
	file string
	line int
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, findings []driver.Finding) {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				ws, err := parseWants(text[len("want "):])
				if err != nil {
					t.Errorf("%s: bad want comment: %v", pos, err)
					continue
				}
				key := lineKey{pos.Filename, pos.Line}
				wants[key] = append(wants[key], ws...)
			}
		}
	}
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		var hit *want
		for _, w := range wants[key] {
			if w.re.MatchString(f.Diag.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Pos, f.Analyzer, f.Diag.Message)
			continue
		}
		hit.matched = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.raw)
			}
		}
	}
}

// parseWants parses a sequence of quoted regexps.
func parseWants(s string) ([]*want, error) {
	var out []*want
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		// Find the end of the quoted string, honoring escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated quote in %q", s)
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, &want{re: re, raw: raw})
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want")
	}
	return out, nil
}

// stdlibExport resolves a standard-library import to its export data
// via one cached `go list` sweep per process.
var (
	exportMu    sync.Mutex
	exportCache = map[string]string{}
)

func stdlibExport(t *testing.T, path string) (io.ReadCloser, error) {
	t.Helper()
	exportMu.Lock()
	file, ok := exportCache[path]
	exportMu.Unlock()
	if !ok {
		pkgs, err := driver.GoList(".", path)
		if err != nil {
			return nil, fmt.Errorf("resolving testdata import %q: %v", path, err)
		}
		exportMu.Lock()
		for p, export := range driver.ExportMap(pkgs) {
			exportCache[p] = export
		}
		file, ok = exportCache[path]
		exportMu.Unlock()
		if !ok {
			return nil, fmt.Errorf("testdata import %q not resolved", path)
		}
	}
	return os.Open(file)
}
