// Package ackcontract enforces the wire ack retry contract end to end:
//
//   - in internal/wire, every exported AckCode constant carries exactly
//     one `// ackclass: success|transient|permanent` line in its doc
//     comment (the machine-readable half of the prose that already
//     documents each code), and no two constants share a value; each
//     classification is exported as an object fact on the constant;
//   - in the client, every switch over an AckCode maps
//     each code to a retry disposition consistent with its fact: a
//     permanent-fact code must resolve to a sentinel the package's
//     permanent() classifier recognizes, a transient-fact code must
//     not, and a success-fact code must return nil. Codes left to the
//     default clause are checked against the default's disposition,
//     so adding a new AckCode without deciding its retry behavior is
//     an analysis error, not a silent retry storm (or a silent
//     never-retry) discovered in a chaos run.
//
// The annotation lives with the constant and the enforcement lives
// with the retry loop, in different packages; the fact mechanism
// carries the classification across the package boundary.
package ackcontract

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Class is the object fact attached to each AckCode constant:
// "success", "transient", or "permanent".
type Class struct {
	Class string
}

// AFact marks Class as a fact type.
func (*Class) AFact() {}

var validClasses = map[string]bool{"success": true, "transient": true, "permanent": true}

// scope matches the packages whose AckCode switches must agree with
// the ackclass facts.
var scope = regexp.MustCompile(`(^|/)internal/client(/|$)`)

// Analyzer is the ackcontract analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ackcontract",
	Doc: "require exactly one ackclass annotation per wire.AckCode and retry logic that " +
		"agrees with it (only transient codes may be retried)",
	FactTypes: []analysis.Fact{(*Class)(nil)},
	Run:       run,
}

func wirePath(path string) bool {
	return path == "internal/wire" || strings.HasSuffix(path, "/internal/wire")
}

func run(pass *analysis.Pass) error {
	if wirePath(pass.PkgPath()) {
		checkDeclarations(pass)
	}
	if scope.MatchString(pass.PkgPath()) {
		checkRetrySwitches(pass)
	}
	return nil
}

// checkDeclarations validates the ackclass annotations on AckCode
// constants and exports one Class fact per annotated constant.
func checkDeclarations(pass *analysis.Pass) {
	values := map[uint64]string{} // value → first constant name
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || !isNamed(obj.Type(), "AckCode") {
						continue
					}
					// Unexported bound sentinels (numAckCodes) are not
					// wire codes; they need no classification.
					if strings.HasPrefix(name.Name, "num") || strings.HasPrefix(name.Name, "max") {
						continue
					}
					if v, exact := constant.Uint64Val(obj.Val()); exact {
						if first, dup := values[v]; dup {
							pass.Reportf(name.Pos(),
								"ack code %s has the same value (%d) as %s; aliased codes make the transient/permanent classification ambiguous",
								name.Name, v, first)
						} else {
							values[v] = name.Name
						}
					}
					classes := ackclassLines(vs.Doc, gd.Doc)
					switch {
					case len(classes) == 0:
						pass.Reportf(name.Pos(),
							"ack code %s has no // ackclass: annotation; every wire code must be classified success, transient, or permanent",
							name.Name)
						continue
					case len(classes) > 1:
						pass.Reportf(name.Pos(),
							"ack code %s is classified more than once (%s); exactly one ackclass line is allowed",
							name.Name, strings.Join(classes, ", "))
						continue
					}
					class := classes[0]
					if !validClasses[class] {
						pass.Reportf(name.Pos(),
							"ack code %s has unknown ackclass %q (want success, transient, or permanent)",
							name.Name, class)
						continue
					}
					pass.ExportObjectFact(obj, &Class{Class: class})
				}
			}
		}
	}
}

// ackclassLines extracts the values of `ackclass:` lines from the
// spec's doc comment (falling back to the decl group's doc for
// one-spec declarations).
func ackclassLines(docs ...*ast.CommentGroup) []string {
	var out []string
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "ackclass:"); ok {
				out = append(out, strings.TrimSpace(rest))
			}
		}
	}
	return out
}

// checkRetrySwitches finds switches over AckCode values and checks
// each clause's retry disposition against the codes' Class facts.
func checkRetrySwitches(pass *analysis.Pass) {
	permSet := permanentSentinels(pass)
	pass.Inspect(func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tagType := pass.TypesInfo.Types[sw.Tag].Type
		if tagType == nil || !isAckCode(tagType) {
			return true
		}
		if permSet == nil {
			pass.Reportf(sw.Pos(),
				"switch on wire.AckCode but no permanent(err) classifier in this package; the retry loop cannot distinguish transient from permanent codes")
			return true
		}
		cased := map[string]bool{} // object paths handled by explicit cases
		var wirePkg *types.Package
		var defaultClause *ast.CaseClause
		for _, stmt := range sw.Body.List {
			clause, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if clause.List == nil {
				defaultClause = clause
				continue
			}
			disp := clauseDisposition(pass, clause, permSet)
			for _, expr := range clause.List {
				obj := constObject(pass, expr)
				if obj == nil || !isAckCode(obj.Type()) {
					continue
				}
				wirePkg = obj.Pkg()
				if p, ok := analysis.ObjectPath(obj); ok {
					cased[p] = true
				}
				checkCode(pass, expr.Pos(), obj, disp, "")
			}
		}
		// Codes without an explicit case fall to the default clause
		// (or, with no default, are silently dropped — also an error).
		if wirePkg == nil {
			return true
		}
		defaultDisp := ""
		if defaultClause != nil {
			defaultDisp = clauseDisposition(pass, defaultClause, permSet)
		}
		for _, of := range pass.AllObjectFacts() {
			cf, ok := of.Fact.(*Class)
			if !ok || of.Path != analysis.TrimPkgPath(wirePkg.Path()) || cased[of.Object] {
				continue
			}
			if defaultClause == nil {
				pass.Reportf(sw.Pos(),
					"ack code %s (%s) is not handled by this switch and there is no default clause",
					of.Object, cf.Class)
				continue
			}
			obj := analysis.FindObject(wirePkg, of.Object)
			if obj == nil {
				continue
			}
			checkCode(pass, defaultClause.Pos(), obj, defaultDisp, " by the default clause")
		}
		return true
	})
}

// checkCode compares one code's fact against the disposition the
// clause handling it implements.
func checkCode(pass *analysis.Pass, pos token.Pos, obj types.Object, disp, via string) {
	var fact Class
	if !pass.ImportObjectFact(obj, &fact) {
		pass.Reportf(pos,
			"ack code %s has no ackclass fact; annotate it in the wire package so retry behavior is declared once",
			obj.Name())
		return
	}
	if disp == "" || disp == fact.Class {
		return
	}
	pass.Reportf(pos,
		"ack code %s is declared %s but is treated as %s%s; retry logic may only retry transient codes",
		obj.Name(), fact.Class, disp, via)
}

// clauseDisposition classifies what a case body does with the code:
// "permanent" if it surfaces a sentinel the permanent() classifier
// recognizes, "transient" if it surfaces any other package sentinel,
// "success" if it only returns nil, "" when undecidable.
func clauseDisposition(pass *analysis.Pass, clause *ast.CaseClause, permSet map[types.Object]bool) string {
	usesPermanent, usesOther, returnsNil := false, false, false
	for _, stmt := range clause.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[n]
				if obj == nil {
					return true
				}
				if v, ok := obj.(*types.Var); ok && isErrorVar(v) && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					if permSet[obj] {
						usesPermanent = true
					} else if analysis.TrimPkgPath(obj.Pkg().Path()) == pass.PkgPath() {
						usesOther = true
					}
				}
			case *ast.ReturnStmt:
				if len(n.Results) == 1 {
					if id, ok := n.Results[0].(*ast.Ident); ok && id.Name == "nil" {
						returnsNil = true
					}
				}
			}
			return true
		})
	}
	switch {
	case usesPermanent:
		return "permanent"
	case usesOther:
		return "transient"
	case returnsNil:
		return "success"
	}
	return ""
}

// permanentSentinels finds the package's `func permanent(error) bool`
// classifier and returns the sentinel objects it matches with
// errors.Is. Nil means no classifier exists.
func permanentSentinels(pass *analysis.Pass) map[types.Object]bool {
	var body *ast.BlockStmt
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "permanent" || fd.Recv != nil {
				continue
			}
			ft := fd.Type
			if len(ft.Params.List) == 1 && ft.Results != nil && len(ft.Results.List) == 1 {
				body = fd.Body
			}
		}
	}
	if body == nil {
		return nil
	}
	set := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Is" {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "errors" {
			return true
		}
		var id *ast.Ident
		switch target := ast.Unparen(call.Args[1]).(type) {
		case *ast.Ident:
			id = target
		case *ast.SelectorExpr:
			id = target.Sel
		default:
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			set[obj] = true
		}
		return true
	})
	return set
}

// isAckCode reports whether t is (a pointer to) the named type
// AckCode declared in a wire package.
func isAckCode(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "AckCode" || named.Obj().Pkg() == nil {
		return false
	}
	return wirePath(named.Obj().Pkg().Path())
}

func isNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// isErrorVar reports whether v has static type error.
func isErrorVar(v *types.Var) bool {
	return types.Identical(v.Type(), types.Universe.Lookup("error").Type())
}

// constObject resolves a case expression to its constant object.
func constObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}
