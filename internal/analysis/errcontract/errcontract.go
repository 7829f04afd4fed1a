// Package errcontract enforces the error contract of the networked
// boundary: errors that cross between internal/wire, internal/client,
// internal/server and internal/distnet must stay inspectable with
// errors.Is — typed sentinels, wrapped with %w — never flattened to
// text.
//
// The client's retry loop decides permanent-vs-transient via
// errors.Is(err, ErrVersionMismatch/ErrSeedMismatch/ErrRejected); the
// server maps core.ErrMismatch/ErrCorrupt to typed ack codes the same
// way. One fmt.Errorf("...: %v", err) anywhere on those paths severs
// the chain and turns a typed refusal into an infinitely retried
// string. The analyzer flags, in the boundary packages (non-test
// files):
//
//   - fmt.Errorf calls where an error-typed argument is formatted with
//     any verb but %w (each such diagnostic carries a mechanical
//     suggested fix, applied by `unionlint -fix`);
//   - fmt.Errorf calls passing err.Error() as an argument (the same
//     flattening, pre-chewed);
//   - == / != comparisons of err.Error() strings (string matching;
//     use errors.Is).
//
// Multi-error wrapping is part of the contract, not a violation:
// fmt.Errorf with several %w verbs (legal since Go 1.20) and
// errors.Join both preserve every branch of the chain for errors.Is,
// so neither is flagged — but a joined error formatted with %v is,
// like any other error: the server's drain path may combine a context
// error with per-connection close errors, and the combined chain must
// survive to the caller. Indexed directives (%[1]v) are parsed and
// checked against the argument they actually select.
package errcontract

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// scope matches the packages forming the network boundary.
var scope = regexp.MustCompile(`(^|/)internal/(wire|client|server|distnet)(/|$)`)

// Analyzer is the errcontract analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errcontract",
	Doc:  "errors crossing the wire/client boundary must wrap with %w, not flatten to text",
	Run:  run,
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.PkgPath()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorf(pass, n)
		case *ast.BinaryExpr:
			checkStringCompare(pass, n)
		}
		return true
	})
	return nil
}

// checkErrorf inspects one fmt.Errorf call.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if pass.IsTestFile(call.Pos()) {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); !ok || pn.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorDotError(pass, arg) {
			pass.Reportf(arg.Pos(),
				"err.Error() passed to fmt.Errorf flattens the error chain; pass the error itself with %%w so errors.Is keeps working across the wire/client boundary")
		}
	}
	for _, v := range parseVerbs(lit.Value) {
		if v.verb == 'w' || v.argIndex >= len(call.Args)-1 {
			continue
		}
		arg := call.Args[1+v.argIndex]
		if isErrorDotError(pass, arg) || !isErrorTyped(pass, arg) {
			continue
		}
		d := analysis.Diagnostic{
			Pos: arg.Pos(),
			Message: fmt.Sprintf(
				"error formatted with %%%c loses the error chain at the wire/client boundary; wrap with %%w so errors.Is/As keep working", v.verb),
		}
		if fixed, ok := rewriteVerb(lit.Value, v, 'w'); ok {
			d.SuggestedFixes = []analysis.SuggestedFix{{
				Message: fmt.Sprintf("replace %%%c with %%w in the format string", v.verb),
				TextEdits: []analysis.TextEdit{{
					Pos:     lit.Pos(),
					End:     lit.End(),
					NewText: []byte(fixed),
				}},
			}}
		}
		pass.ReportDiag(d)
	}
}

// checkStringCompare flags err.Error() == "..." style matching.
func checkStringCompare(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if pass.IsTestFile(be.Pos()) {
		return
	}
	if isErrorDotError(pass, be.X) || isErrorDotError(pass, be.Y) {
		pass.Reportf(be.OpPos,
			"comparing error strings; match errors with errors.Is against the typed sentinels instead")
	}
}

// isErrorTyped reports whether the expression's static type implements
// error.
func isErrorTyped(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	return t != nil && types.Implements(t, errorType)
}

// isErrorDotError matches a call of the Error() method on an error
// value.
func isErrorDotError(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorTyped(pass, sel.X)
}

// verb is one % directive located in the *raw source text* of a string
// literal (offsets index lit.Value, quotes included). Scanning raw
// text is sound because '%' is never produced by an escape sequence.
// argIndex is the 0-based format argument the directive consumes,
// accounting for explicit indexes (%[2]v selects argument 1, and the
// following unindexed directive continues from argument 2, as in fmt).
type verb struct {
	rawStart, rawEnd int // [start, end) of the whole directive in the raw literal
	verb             rune
	argIndex         int
}

// parseVerbs scans a string literal's source text for fmt directives
// (%% consumed; a malformed explicit index stops the scan
// conservatively, as does a *-width, which would shift the argument
// mapping — neither appears in this codebase).
func parseVerbs(raw string) []verb {
	var out []verb
	next := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] != '%' {
			continue
		}
		start := i
		i++
		if i < len(raw) && raw[i] == '%' {
			continue // literal percent
		}
		// flags, width, precision
		for i < len(raw) && strings.ContainsRune("+-# 0123456789.", rune(raw[i])) {
			i++
		}
		if i < len(raw) && raw[i] == '*' {
			return out // *-width consumes an argument: bail out
		}
		if i < len(raw) && raw[i] == '[' {
			j, n := i+1, 0
			for j < len(raw) && raw[j] >= '0' && raw[j] <= '9' {
				n = n*10 + int(raw[j]-'0')
				j++
			}
			if j >= len(raw) || raw[j] != ']' || n == 0 {
				return out // malformed index: bail out
			}
			next = n - 1
			i = j + 1
		}
		if i >= len(raw) {
			break
		}
		out = append(out, verb{rawStart: start, rawEnd: i + 1, verb: rune(raw[i]), argIndex: next})
		next++
	}
	return out
}

// rewriteVerb returns the literal with v's verb rune replaced.
func rewriteVerb(raw string, v verb, to rune) (string, bool) {
	if v.rawEnd > len(raw) || v.rawEnd < 1 {
		return "", false
	}
	return raw[:v.rawEnd-1] + string(to) + raw[v.rawEnd:], true
}
