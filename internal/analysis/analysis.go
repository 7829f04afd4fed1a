// Package analysis is a deliberately small, dependency-free skeleton
// of golang.org/x/tools/go/analysis: an Analyzer is a named check with
// a Run function over one type-checked package (a Pass), reporting
// Diagnostics that may carry mechanical SuggestedFixes.
//
// The repository vendors no third-party modules, so this package
// reimplements just the slice of the x/tools surface the unionlint
// analyzers need, keeping their code shaped so a future migration to
// the real framework is a find-and-replace. The one driver is
// internal/analysis/driver, the `go vet -vettool` front end of
// cmd/unionlint; the golden tests (internal/analysis/analysistest) run
// unionlint through go vet too.
//
// # Suppression
//
// Every analyzer honors one escape hatch: a comment of the form
//
//	// unionlint:allow <name>[,<name>...] <reason>
//
// on the offending line, or on the line directly above it, suppresses
// diagnostics from the named analyzers. The reason is mandatory: the
// annotation is a reviewed exception, not an off switch. An annotation
// without one still suppresses, but each analyzer it names reports it
// (Pass.ReportBareAllows).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
	// call Pass.Reportf / Pass.ReportDiag, which apply unionlint:allow
	// suppression before forwarding here.
	Report func(Diagnostic)

	// FactContext is the driver's fact store view for this pass:
	// exports attach to this package, imports see the transitive
	// imports. Its methods are the Pass's fact methods.
	FactContext

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
		p.eachAllow(func(c *ast.Comment, names []string, _ bool) {
			cp := p.Fset.Position(c.Pos())
			for _, n := range names {
				// The annotation covers its own line and the
				// following one, so it can trail the offending
				// code or sit on its own line above it.
				p.allow[allowKey{cp.Filename, cp.Line, n}] = true
				p.allow[allowKey{cp.Filename, cp.Line + 1, n}] = true
			}
		})
	}
	pp := p.Fset.Position(pos)
	return p.allow[allowKey{pp.Filename, pp.Line, p.Analyzer.Name}]
}

// ReportBareAllows reports each unionlint:allow annotation that names
// this pass's analyzer but gives no reason, whether or not it
// suppressed anything. The report bypasses suppression, which the
// annotation itself would otherwise apply to its own line. Drivers
// call it once per pass.
func (p *Pass) ReportBareAllows() {
	p.eachAllow(func(c *ast.Comment, names []string, reason bool) {
		if !reason && slices.Contains(names, p.Analyzer.Name) {
			p.Report(Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
				"unionlint:allow %s needs a reason: say why the finding does not apply here",
				p.Analyzer.Name)})
		}
	})
}

// eachAllow calls fn for every unionlint:allow annotation in the
// package's files.
func (p *Pass) eachAllow(fn func(c *ast.Comment, names []string, reason bool)) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if names, reason, ok := parseAllow(c.Text); ok {
					fn(c, names, reason)
				}
			}
		}
	}
}

// parseAllow extracts the analyzer names from one comment's text if it
// is an unionlint:allow annotation, and reports whether a reason
// follows them.
func parseAllow(text string) (names []string, reason, ok bool) {
	text = strings.TrimPrefix(text, "//")
	if t, block := strings.CutPrefix(text, "/*"); block {
		text = strings.TrimSuffix(t, "*/")
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), allowPrefix)
	if !ok {
		return nil, false, false
	}
	// Names are the first whitespace-delimited field; anything after
	// is the free-text reason.
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false, false
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	return names, len(fields) > 1, len(names) > 0
}
