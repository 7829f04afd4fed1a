// Package analysis is a deliberately small, dependency-free skeleton
// of golang.org/x/tools/go/analysis: an Analyzer is a named check with
// a Run function over one type-checked package (a Pass), reporting
// Diagnostics that may carry mechanical SuggestedFixes.
//
// The repository vendors no third-party modules, so this package
// reimplements just the slice of the x/tools surface the unionlint
// analyzers need, keeping their code shaped so a future migration to
// the real framework is a find-and-replace. Drivers live in
// internal/analysis/driver (the `go vet -vettool` front end) and
// internal/analysis/analysistest (golden tests).
//
// # Suppression
//
// Every analyzer honors one escape hatch: a comment of the form
//
//	// unionlint:allow <name>[,<name>...] [reason]
//
// on the offending line, or on the line directly above it, suppresses
// diagnostics from the named analyzers. Reasons are free text and
// strongly encouraged — the annotation is a reviewed exception, not an
// off switch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and unionlint:allow
	// annotations.
	Name string
	// Doc is a one-paragraph description; the first line is the
	// summary shown by `unionlint -help`.
	Doc string
	// FactTypes lists one zero value per concrete Fact type the
	// analyzer exports or imports, so drivers can register them for
	// gob (de)serialization. Nil means the analyzer uses no facts.
	FactTypes []Fact
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic; drivers set it. Analyzers should
	// call Pass.Reportf / Pass.Report, which apply unionlint:allow
	// suppression before forwarding here.
	Report func(Diagnostic)

	// Facts is the driver's fact store view for this pass: exports
	// attach to this package, imports see the transitive imports. Nil
	// when the driver does not support facts; the Pass fact methods
	// (facts.go) degrade gracefully then.
	Facts FactContext

	allow map[allowKey]bool // lazily built unionlint:allow index
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional (NoPos)
	Message string
	// SuggestedFixes carries mechanical rewrites a driver may apply
	// (unionlint -fix).
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Reportf reports a diagnostic at pos, subject to unionlint:allow
// suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportDiag(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportDiag reports d unless an unionlint:allow comment suppresses it.
func (p *Pass) ReportDiag(d Diagnostic) {
	if p.Allowed(d.Pos) {
		return
	}
	p.Report(d)
}

// PkgPath returns the package's import path with any test-variant
// suffix ("pkg [pkg.test]") stripped, so scope regexps treat a
// package and its internal-test compilation alike.
func (p *Pass) PkgPath() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// Inspect walks every file of the package in depth-first order,
// calling fn as ast.Inspect does.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

type allowKey struct {
	file string
	line int
	name string
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "unionlint:allow"

// Allowed reports whether an `unionlint:allow <name>` comment for this
// pass's analyzer covers pos (same line, or the line above).
func (p *Pass) Allowed(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	if p.allow == nil {
		p.allow = map[allowKey]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					for _, n := range names {
						// The annotation covers its own line and the
						// following one, so it can trail the offending
						// code or sit on its own line above it.
						p.allow[allowKey{cp.Filename, cp.Line, n}] = true
						p.allow[allowKey{cp.Filename, cp.Line + 1, n}] = true
					}
				}
			}
		}
	}
	pp := p.Fset.Position(pos)
	return p.allow[allowKey{pp.Filename, pp.Line, p.Analyzer.Name}] ||
		p.allow[allowKey{pp.Filename, pp.Line, "all"}]
}

// parseAllow extracts the analyzer names from one comment's text if it
// is an unionlint:allow annotation.
func parseAllow(text string) ([]string, bool) {
	text = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*"))
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, false
	}
	rest := strings.TrimSpace(text[len(allowPrefix):])
	// Names are the first whitespace-delimited field; anything after
	// is a free-text reason.
	field := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		field = rest[:i]
	}
	var names []string
	for _, n := range strings.Split(field, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}
