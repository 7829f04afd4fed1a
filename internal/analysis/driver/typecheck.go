// Package driver type-checks packages and runs unionlint analyzers
// over them. Its one front end, RunVetUnit, implements the
// `go vet -vettool` protocol: the go command hands it one compilation
// unit at a time as a JSON config naming the unit's source files, the
// compiler-produced export data of every dependency, and the .vetx
// fact files of its direct imports. Imports come from that export
// data (no source re-typechecking of dependencies), which keeps a
// full-repo run well under a second after the build cache is warm.
// analysistest drives the same type-checking and analysis core over
// golden testdata packages.
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

// ExportLookup resolves an import path to a reader of gc export data.
type ExportLookup func(path string) (io.ReadCloser, error)

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

// TypeCheck type-checks files as package path, resolving imports
// through lookup. goVersion may be empty.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, lookup ExportLookup, goVersion string) (*Package, error) {
	imp := unsafeAware{importer.ForCompiler(fset, "gc", importer.Lookup(lookup))}
	return TypeCheckImporter(fset, path, files, imp, goVersion)
}

// TypeCheckImporter is TypeCheck with a caller-supplied types.Importer,
// for front ends (analysistest) that resolve some imports from source.
func TypeCheckImporter(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{
		Importer: imp,
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

// FileLookup builds an ExportLookup over an importPath→exportFile map,
// with an optional importMap applied first (vet configs use it for
// vendoring and test-variant remapping).
func FileLookup(importMap, packageFile map[string]string) ExportLookup {
	return func(path string) (io.ReadCloser, error) {
		if canon, ok := importMap[path]; ok && canon != "" {
			path = canon
		}
		file, ok := packageFile[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}
