// Package floatcmp forbids float equality comparisons in estimator
// code.
//
// Estimates in this repository are medians of scaled float64 counts;
// comparing them with == or != encodes an accident of rounding as
// logic. The analyzer flags ==/!= where either operand is a float
// type, in the estimator packages (internal/core, internal/estimate),
// with two deliberate carve-outs:
//
//   - comparison against an exact constant zero: zero is exactly
//     representable and "no data yet" is a legitimate domain check
//     (RelErr's truth == 0 guard is the canonical example);
//   - _test.go files: the repository's tests assert bit-identical
//     determinism (serial vs parallel, local vs networked), where
//     exact float equality is the point, not a bug.
//
// Everything else should use an epsilon comparison (math.Abs(a-b) <
// eps) or carry an `unionlint:allow floatcmp <reason>` annotation.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// scope matches the estimator code the rule applies to.
var scope = regexp.MustCompile(`(^|/)internal/(core|estimate)(/|$)`)

// Analyzer is the floatcmp analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "forbid ==/!= on floats in estimator code (except against exact zero)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.PkgPath()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if pass.IsTestFile(be.Pos()) {
			return true
		}
		if !isFloat(pass, be.X) && !isFloat(pass, be.Y) {
			return true
		}
		if isExactZero(pass, be.X) || isExactZero(pass, be.Y) {
			return true
		}
		pass.Reportf(be.OpPos,
			"float equality (%s) in estimator code; use an epsilon comparison like math.Abs(a-b) < eps, or annotate `unionlint:allow floatcmp <reason>` if exactness is intended", be.Op)
		return true
	})
	return nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether e is a compile-time constant equal to 0.
func isExactZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	if tv.Value.Kind() != constant.Int && tv.Value.Kind() != constant.Float {
		return false
	}
	return constant.Sign(tv.Value) == 0
}
