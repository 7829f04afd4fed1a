// Package driver type-checks packages and runs unionlint analyzers
// over them. Its one front end, RunVetUnit, implements the
// `go vet -vettool` protocol: the go command hands it one compilation
// unit at a time as a JSON config naming the unit's source files, the
// compiler-produced export data of every dependency, and the .vetx
// fact files of its direct imports. Imports come from that export
// data (no source re-typechecking of dependencies), which keeps a
// full-repo run well under a second after the build cache is warm.
// The analyzers' golden tests (analysistest) run through it too: they
// build unionlint and run go vet over a copy of their testdata.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// ParseFiles parses the named Go files into fset, keeping comments
// (annotations and unionlint:allow suppressions live there).
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheck type-checks files as package path, importing each
// dependency from the export data file packageFile names for it, after
// importMap (vet configs use it for vendoring and test-variant
// remapping). goVersion may be empty.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, importMap, packageFile map[string]string, goVersion string) (*Package, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := importMap[path]; ok && canon != "" {
			path = canon
		}
		file, ok := packageFile[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{
		Importer: unsafeAware{importer.ForCompiler(fset, "gc", lookup)},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	if goVersion != "" && !strings.HasPrefix(goVersion, "go1.") && goVersion != "go1" {
		// go/types wants "go1.N"; ignore anything else (e.g. devel).
		goVersion = ""
	}
	cfg.GoVersion = goVersion
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// unsafeAware short-circuits the magic "unsafe" package, which has no
// export data on disk.
type unsafeAware struct{ base types.Importer }

func (i unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.base.Import(path)
}
