// Package mergepure enforces the determinism contract of the sketch
// merge/estimate path: two parties that fold the same label sets must
// arrive at bit-identical state (DESIGN "mergeability"; the paper's
// union protocol depends on it), so the functions that implement that
// path must not consult wall clocks, randomness, or scheduler order.
//
// The analyzer treats every package-level function or method whose
// name starts with Process, Merge, or Estimate, or is MarshalBinary,
// as a determinism root. A root is impure — and reported — when it, or
// anything it (transitively) calls, does one of:
//
//   - call time.Now, time.Since, or time.Until;
//   - call into math/rand, math/rand/v2, or crypto/rand;
//   - start a goroutine (completion order is scheduler-dependent).
//
// Impurity crosses package boundaries through Impure object facts:
// analyzing a package exports a fact for each impure package-level
// function, and a root in a downstream package that calls one is
// reported at the call site.
//
// Deliberate, order-independent uses of these constructs — the
// parallel sharding in core/parallel.go is the canonical case — are
// declared, not silenced: a
//
//	// mergepure:seam <reason>
//
// line in the function's doc comment marks a reviewed seam. The reason
// is mandatory; it should say why the observable result does not
// depend on order.
//
// Roots additionally must not leak map iteration order (randomized per
// range in Go). Inside a `for ... range m` over a map, in a root
// function, the analyzer flags:
//
//   - an unguarded plain assignment to a variable declared outside the
//     range whose value varies per iteration (last write wins, in
//     random order);
//   - floating-point compound assignment (+=, -=, ...): float
//     arithmetic is not associative, so even commutative-looking
//     accumulation drifts with order;
//   - append to an outer slice in a function that never sorts: the
//     slice ends up in map order. (Non-root helpers such as
//     Sampler.Sample legitimately return unordered copies that their
//     callers sort; only roots are held to this rule.)
//
// Integer counters, delete, and keyed map/index writes are order-
// independent and never flagged. The check is scoped to the sketch
// state packages.
package mergepure

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Impure is the object fact exported for a package-level function that
// is (transitively) nondeterministic, so downstream roots that call it
// are reported without re-analyzing its body.
type Impure struct {
	Reason string
}

// AFact marks Impure as a fact type.
func (*Impure) AFact() {}

// scope matches the packages whose determinism roots are reported;
// facts are exported everywhere.
var scope = regexp.MustCompile(`(^|/)internal/(core|exact|window|sketch)(/|$)`)

// Analyzer is the mergepure analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mergepure",
	Doc: "require functions on the sketch merge/estimate path to be deterministic: no clocks, " +
		"no randomness, no goroutine fan-out outside declared seams, no map-order leaks",
	FactTypes: []analysis.Fact{(*Impure)(nil)},
	Run:       run,
}

// seamPrefix introduces a declared-seam annotation in a doc comment.
const seamPrefix = "mergepure:seam"

// rootNamed reports whether a function name puts it on the
// deterministic merge/estimate path.
func rootNamed(name string) bool {
	return strings.HasPrefix(name, "Process") ||
		strings.HasPrefix(name, "Merge") ||
		strings.HasPrefix(name, "Estimate") ||
		name == "MarshalBinary"
}

// A taint is one direct nondeterminism source in a function body.
type taint struct {
	pos    token.Pos
	reason string
}

// An edge is one call to another function whose impurity may
// propagate here.
type edge struct {
	pos    token.Pos
	callee *types.Func
}

type funcInfo struct {
	decl    *ast.FuncDecl
	seam    bool
	taints  []taint
	edges   []edge
	sorts   bool // body contains a sort/slices ordering call
	visited bool // resolve() in progress (cycle guard)
	reason  string
	badPos  token.Pos // where the impurity enters this function
	solved  bool
}

func run(pass *analysis.Pass) error {
	inScope := scope.MatchString(pass.PkgPath())

	funcs := map[types.Object]*funcInfo{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			funcs[obj] = collect(pass, fd)
		}
	}

	var resolve func(obj types.Object) string
	resolve = func(obj types.Object) string {
		fi := funcs[obj]
		if fi == nil || fi.seam {
			return ""
		}
		if fi.solved {
			return fi.reason
		}
		if fi.visited {
			return "" // recursion: resolved by the outer frame
		}
		fi.visited = true
		defer func() { fi.visited = false; fi.solved = true }()
		if len(fi.taints) > 0 {
			fi.reason = fi.taints[0].reason
			fi.badPos = fi.taints[0].pos
			return fi.reason
		}
		for _, e := range fi.edges {
			if _, local := funcs[e.callee]; local {
				if r := resolve(e.callee); r != "" {
					fi.reason = "calls " + e.callee.Name() + ", which " + r
					fi.badPos = e.pos
					return fi.reason
				}
				continue
			}
			var imp Impure
			if pass.ImportObjectFact(e.callee, &imp) {
				fi.reason = "calls " + qualifiedName(e.callee) + ", which " + imp.Reason
				fi.badPos = e.pos
				return fi.reason
			}
		}
		return ""
	}

	// Export an Impure fact for every impure package-level function, so
	// downstream packages see through this one without its source.
	for obj := range funcs {
		if reason := resolve(obj); reason != "" {
			if _, ok := analysis.ObjectPath(obj); ok {
				pass.ExportObjectFact(obj, &Impure{Reason: reason})
			}
		}
	}

	if !inScope {
		return nil
	}
	for obj, fi := range funcs {
		checkSeamReason(pass, fi)
		if !rootNamed(obj.Name()) || fi.seam {
			continue
		}
		if reason := resolve(obj); reason != "" {
			pos := fi.badPos
			if !pos.IsValid() {
				pos = fi.decl.Name.Pos()
			}
			pass.Reportf(pos,
				"%s must be deterministic (merge/estimate contract) but %s; if the construct is order-independent, declare it with // mergepure:seam <reason>",
				obj.Name(), reason)
		}
		checkMapRanges(pass, fi)
	}
	return nil
}

// collect gathers a function's direct taints, call edges, seam
// annotation, and whether it sorts anything.
func collect(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{decl: fd}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, seamPrefix) {
				fi.seam = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			fi.taints = append(fi.taints, taint{n.Pos(),
				"starts goroutines whose completion order is scheduler-dependent"})
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch path := fn.Pkg().Path(); {
			case path == "time" && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"):
				fi.taints = append(fi.taints, taint{n.Pos(), "calls time." + fn.Name()})
			case path == "math/rand" || path == "math/rand/v2" || path == "crypto/rand":
				fi.taints = append(fi.taints, taint{n.Pos(), "uses " + path})
			case path == "sort" || path == "slices" && strings.HasPrefix(fn.Name(), "Sort"):
				fi.sorts = true
			default:
				// Every other callee may carry impurity — same-package
				// bodies are resolved locally, anything else through
				// Impure facts (a miss is cheap and means pure).
				fi.edges = append(fi.edges, edge{n.Pos(), fn})
			}
		}
		return true
	})
	return fi
}

// checkSeamReason requires every seam annotation to carry a reason.
func checkSeamReason(pass *analysis.Pass, fi *funcInfo) {
	if fi.decl.Doc == nil {
		return
	}
	for _, c := range fi.decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, seamPrefix) {
			continue
		}
		if strings.TrimSpace(text[len(seamPrefix):]) == "" {
			pass.Reportf(fi.decl.Name.Pos(),
				"mergepure:seam needs a reason: say why the observable result does not depend on order")
		}
	}
}

// checkMapRanges flags map-iteration-order leaks in one root function.
func checkMapRanges(pass *analysis.Pass, fi *funcInfo) {
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		rangeVars := rangeVarObjects(pass, rs)
		checkRangeBody(pass, fi, rs, rs.Body, rangeVars, false)
		return true
	})
}

// checkRangeBody walks the statements of a map-range body. guarded is
// true once the walk has passed through an if or switch — a guarded
// plain assignment is usually an order-independent extremum idiom
// (`if v > best { best = v }`), so only unguarded ones are flagged.
func checkRangeBody(pass *analysis.Pass, fi *funcInfo, rs *ast.RangeStmt, stmt ast.Stmt, rangeVars map[types.Object]bool, guarded bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			checkRangeBody(pass, fi, rs, st, rangeVars, guarded)
		}
	case *ast.IfStmt:
		checkRangeBody(pass, fi, rs, s.Body, rangeVars, true)
		if s.Else != nil {
			checkRangeBody(pass, fi, rs, s.Else, rangeVars, true)
		}
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				checkRangeBody(pass, fi, rs, st, rangeVars, true)
			}
		}
	case *ast.ForStmt:
		checkRangeBody(pass, fi, rs, s.Body, rangeVars, guarded)
	case *ast.RangeStmt:
		checkRangeBody(pass, fi, rs, s.Body, rangeVars, guarded)
	case *ast.AssignStmt:
		checkRangeAssign(pass, fi, rs, s, rangeVars, guarded)
	}
}

func checkRangeAssign(pass *analysis.Pass, fi *funcInfo, rs *ast.RangeStmt, s *ast.AssignStmt, rangeVars map[types.Object]bool, guarded bool) {
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		// Keyed writes (m[k] = v, a[i] += w) are order-independent.
		if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
			continue
		}
		name, outer := outerTarget(pass, rs, lhs)
		if !outer {
			continue
		}
		// append to an outer slice: map order leaks into element order
		// unless the function sorts.
		if call, isCall := rhs.(*ast.CallExpr); isCall {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "append" {
				if !fi.sorts {
					pass.Reportf(s.Pos(),
						"append to %s inside a map range leaks map iteration order into the slice; sort before use (or build from a sorted key list)",
						name)
				}
				continue
			}
		}
		if s.Tok != token.ASSIGN {
			// Compound assignment: integers commute exactly, floats
			// do not.
			if isFloat(pass.TypesInfo.Types[lhs].Type) {
				pass.Reportf(s.Pos(),
					"floating-point accumulation into %s in map-range order is nondeterministic (float addition is not associative and map order is randomized)",
					name)
			}
			continue
		}
		if !guarded && rhs != nil && mentionsAny(pass, rhs, rangeVars) {
			pass.Reportf(s.Pos(),
				"assignment to %s inside a map range is last-write-wins in randomized map order; the surviving value is nondeterministic",
				name)
		}
	}
}

// outerTarget reports whether lhs writes a variable declared outside
// the range statement (or a field through one), and names it.
func outerTarget(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr) (string, bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[l]
		if obj == nil || obj.Pos() >= rs.Pos() {
			return "", false
		}
		return l.Name, true
	case *ast.SelectorExpr:
		// A field write through any base (typically the receiver)
		// outlives the iteration.
		if base, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			return base.Name + "." + l.Sel.Name, true
		}
		return l.Sel.Name, true
	}
	return "", false
}

// rangeVarObjects returns the objects of the range's key/value vars.
func rangeVarObjects(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(pass *analysis.Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// qualifiedName renders a cross-package callee for a diagnostic.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if path, ok := analysis.ObjectPath(fn); ok {
		name = path
	}
	return fn.Pkg().Name() + "." + name
}

// isFloat reports whether t's underlying basic kind is a float.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeFunc resolves a call's callee to a *types.Func, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return f
}
