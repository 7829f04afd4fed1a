// Package kindcheck enforces the sketch-registry invariants that hold
// the self-describing envelope format together (see DESIGN "envelope
// format" and internal/sketch):
//
//   - a kind package calls sketch.Register exactly once, with a keyed
//     KindInfo literal whose Kind tag, Name, and Version are non-zero
//     constants — tags must be stable, so a computed tag is an error;
//   - kind tags and names are unique across the whole program. Each
//     registering package exports a RegisteredKind fact; any package
//     that directly imports two colliding kind packages (in practice
//     the blank-import aggregator internal/sketch/kinds) reports the
//     collision;
//   - retired tags are never reused: sketch kind tags listed in
//     retiredKindTags, and wire frame type 7 (the retired MsgOpaque)
//     in internal/wire;
//   - every kind package wraps the typed sentinels sketch.ErrMismatch
//     and sketch.ErrCorrupt (and, where used, sketch.ErrUnknownKind)
//     with %w, so errors.Is classification survives the wrap;
//   - the sketch/capability interface methods of a registered type use
//     one consistent receiver kind (all pointer or all value) — a mixed
//     method set silently changes which capability assertions succeed.
package kindcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// RegisteredKind is the package fact a kind package exports: the tag,
// name, and version it passed to sketch.Register.
type RegisteredKind struct {
	Tag     uint64
	Name    string
	Version uint64
}

// AFact marks RegisteredKind as a fact type.
func (*RegisteredKind) AFact() {}

// Analyzer is the kindcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "kindcheck",
	Doc: "enforce sketch-registry invariants: one Register per kind package, constant unique " +
		"never-reused tags, %w-wrapped typed sentinels, consistent receivers",
	FactTypes: []analysis.Fact{(*RegisteredKind)(nil)},
	Run:       run,
}

// registryPath reports whether path is the sketch registry package.
func registryPath(path string) bool {
	return path == "internal/sketch" || strings.HasSuffix(path, "/internal/sketch")
}

// wirePath reports whether path is the wire protocol package.
func wirePath(path string) bool {
	return path == "internal/wire" || strings.HasSuffix(path, "/internal/wire")
}

// retiredKindTags are sketch kind tags that were once assigned and
// must never come back, each with the kind it named; reusing one would
// make old envelopes decode as the new kind. None is retired yet.
var retiredKindTags = map[uint64]string{}

// retiredFrameTypes are wire frame type values that were once assigned
// and must never come back; reusing one would make old captures and
// new binaries disagree about message framing.
var retiredFrameTypes = map[uint64]string{
	7: "MsgOpaque",
}

// sketchMethodNames are the Sketch + capability interface methods
// (internal/sketch); receiver-kind consistency is checked across them.
var sketchMethodNames = map[string]bool{
	"Process":            true,
	"ProcessWeighted":    true,
	"Estimate":           true,
	"EstimateSum":        true,
	"EstimateCountWhere": true,
	"EstimateSumWhere":   true,
	"Merge":              true,
	"MarshalBinary":      true,
	"Kind":               true,
	"Seed":               true,
	"Digest":             true,
	"Describe":           true,
}

// coreMethodCount is how many sketch interface methods a type needs
// before the receiver-consistency rule applies (avoids flagging
// incidental types that happen to have a Merge method).
const coreMethodCount = 4

func run(pass *analysis.Pass) error {
	// Collect sketch.Register call sites and the sentinel objects of
	// the registry package this package uses.
	var registerCalls []*ast.CallExpr
	var registryPkg *types.Package
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Name() != "Register" || fn.Pkg() == nil || !registryPath(fn.Pkg().Path()) {
			return true
		}
		registerCalls = append(registerCalls, call)
		registryPkg = fn.Pkg()
		return true
	})

	if len(registerCalls) > 0 {
		checkRegistrations(pass, registerCalls)
		checkSentinelWrapping(pass, registryPkg, registerCalls[0])
		checkReceiverConsistency(pass)
	}
	checkKindCollisions(pass)
	if wirePath(pass.PkgPath()) {
		checkRetiredFrameTypes(pass)
	}
	return nil
}

// checkRegistrations validates the shape of each Register call and
// exports the package's RegisteredKind fact.
func checkRegistrations(pass *analysis.Pass, calls []*ast.CallExpr) {
	for i, call := range calls {
		if i > 0 {
			pass.Reportf(call.Pos(),
				"package registers %d sketch kinds; each kind package must register exactly one", len(calls))
			continue
		}
		fact := checkOneRegistration(pass, call)
		if fact != nil {
			pass.ExportPackageFact(fact)
		}
	}
}

func checkOneRegistration(pass *analysis.Pass, call *ast.CallExpr) *RegisteredKind {
	if len(call.Args) != 1 {
		return nil // does not typecheck as sketch.Register; nothing to do
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
	if !ok {
		pass.Reportf(call.Args[0].Pos(),
			"Register argument must be a keyed sketch.KindInfo composite literal so the kind tag is statically visible")
		return nil
	}
	fields := map[string]ast.Expr{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			pass.Reportf(el.Pos(),
				"Register argument must use keyed KindInfo fields so the kind tag is statically visible")
			return nil
		}
		if key, ok := kv.Key.(*ast.Ident); ok {
			fields[key.Name] = kv.Value
		}
	}
	fact := &RegisteredKind{}
	ok = true

	tag, isConst := constUint(pass, fields["Kind"])
	switch {
	case fields["Kind"] == nil || !isConst:
		pass.Reportf(lit.Pos(),
			"sketch kind tag must be a constant (tags are wire-stable; a computed tag can drift between builds)")
		ok = false
	case tag == 0:
		pass.Reportf(fields["Kind"].Pos(), "sketch kind tag 0 is reserved for 'unset' and cannot be registered")
		ok = false
	default:
		if reason, isRetired := retiredKindTags[tag]; isRetired {
			pass.Reportf(fields["Kind"].Pos(),
				"sketch kind tag %d is retired (%s) and must never be reused", tag, reason)
			ok = false
		}
		fact.Tag = tag
	}

	if name, isConst := constString(pass, fields["Name"]); fields["Name"] == nil || !isConst || name == "" {
		pass.Reportf(lit.Pos(), "sketch kind name must be a non-empty constant string")
		ok = false
	} else {
		fact.Name = name
	}

	if ver, isConst := constUint(pass, fields["Version"]); fields["Version"] == nil || !isConst || ver == 0 {
		pass.Reportf(lit.Pos(), "sketch kind version must be a positive constant")
		ok = false
	} else {
		fact.Version = ver
	}

	if !ok {
		return nil
	}
	return fact
}

// checkSentinelWrapping requires the registering package to reference
// sketch.ErrMismatch and sketch.ErrCorrupt (merge refusals and decode
// failures must be classifiable), and flags any fmt.Errorf that
// formats a sentinel with a verb other than %w.
func checkSentinelWrapping(pass *analysis.Pass, registryPkg *types.Package, registerCall *ast.CallExpr) {
	sentinels := map[types.Object]string{}
	for _, name := range []string{"ErrMismatch", "ErrCorrupt", "ErrUnknownKind"} {
		if obj := registryPkg.Scope().Lookup(name); obj != nil {
			sentinels[obj] = name
		}
	}
	used := map[string]bool{}
	pass.Inspect(func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if name, isSentinel := sentinels[pass.TypesInfo.Uses[id]]; isSentinel {
				used[name] = true
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
			return true
		}
		format, isConst := constString(pass, call.Args[0])
		if !isConst {
			return true
		}
		verbs := scanVerbs(format)
		for i, arg := range call.Args[1:] {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				if sel, isSel := ast.Unparen(arg).(*ast.SelectorExpr); isSel {
					id = sel.Sel
				} else {
					continue
				}
			}
			name, isSentinel := sentinels[pass.TypesInfo.Uses[id]]
			if !isSentinel || i >= len(verbs) {
				continue
			}
			if verbs[i] != 'w' {
				pass.Reportf(arg.Pos(),
					"sketch.%s formatted with %%%c; wrap with %%w so errors.Is classification survives",
					name, verbs[i])
			}
		}
		return true
	})
	for _, name := range []string{"ErrMismatch", "ErrCorrupt"} {
		if !used[name] {
			pass.Reportf(registerCall.Pos(),
				"kind package never wraps sketch.%s; merge refusals and decode failures must carry the typed sentinel", name)
		}
	}
}

// checkReceiverConsistency flags sketch types whose interface methods
// mix pointer and value receivers.
func checkReceiverConsistency(pass *analysis.Pass) {
	type methodDecl struct {
		decl    *ast.FuncDecl
		pointer bool
	}
	byType := map[string][]methodDecl{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !sketchMethodNames[fd.Name.Name] {
				continue
			}
			t := fd.Recv.List[0].Type
			ptr := false
			if star, isStar := t.(*ast.StarExpr); isStar {
				ptr = true
				t = star.X
			}
			base, ok := t.(*ast.Ident)
			if !ok {
				continue
			}
			byType[base.Name] = append(byType[base.Name], methodDecl{fd, ptr})
		}
	}
	for typeName, methods := range byType {
		if len(methods) < coreMethodCount {
			continue
		}
		pointers := 0
		for _, m := range methods {
			if m.pointer {
				pointers++
			}
		}
		if pointers == 0 || pointers == len(methods) {
			continue
		}
		// Pointer receivers are the convention (sketches mutate), so
		// the value-receiver methods are the odd ones out.
		for _, m := range methods {
			if !m.pointer {
				pass.Reportf(m.decl.Name.Pos(),
					"method %s.%s uses a value receiver while other sketch interface methods use pointer receivers; capability type assertions need one consistent method set",
					typeName, m.decl.Name.Name)
			}
		}
	}
}

// checkKindCollisions compares the RegisteredKind facts of this
// package's direct imports (plus its own) and reports tag or name
// collisions. In practice this fires in the blank-import aggregator
// internal/sketch/kinds, the one package that sees every kind.
func checkKindCollisions(pass *analysis.Pass) {
	direct := map[string]bool{analysis.TrimPkgPath(pass.Pkg.Path()): true}
	for _, imp := range pass.Pkg.Imports() {
		direct[analysis.TrimPkgPath(imp.Path())] = true
	}
	type regSite struct {
		path string
		kind RegisteredKind
	}
	var regs []regSite
	for _, pf := range pass.AllPackageFacts() {
		if rk, ok := pf.Fact.(*RegisteredKind); ok {
			regs = append(regs, regSite{pf.Path, *rk})
		}
	}
	pos := collisionPos(pass)
	for i, a := range regs {
		for _, b := range regs[i+1:] {
			// Only report where at least one offender is a direct
			// import, so the diagnostic lands once (in the aggregator)
			// instead of in every transitive importer.
			if !direct[a.path] && !direct[b.path] {
				continue
			}
			if a.kind.Tag == b.kind.Tag {
				pass.Reportf(pos(a.path, b.path),
					"sketch kind tag %d registered by both %s and %s; tags must be unique program-wide",
					a.kind.Tag, a.path, b.path)
			}
			if a.kind.Name == b.kind.Name {
				pass.Reportf(pos(a.path, b.path),
					"sketch kind name %q registered by both %s and %s; names must be unique program-wide",
					a.kind.Name, a.path, b.path)
			}
		}
	}
}

// collisionPos returns a position chooser: the import spec of one of
// the offending packages when present, else the package clause.
func collisionPos(pass *analysis.Pass) func(a, b string) token.Pos {
	imports := map[string]token.Pos{}
	var fallback token.Pos
	for _, f := range pass.Files {
		if !fallback.IsValid() {
			fallback = f.Name.Pos()
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[path] = imp.Pos()
			}
		}
	}
	return func(a, b string) token.Pos {
		if p, ok := imports[b]; ok {
			return p
		}
		if p, ok := imports[a]; ok {
			return p
		}
		return fallback
	}
}

// checkRetiredFrameTypes flags MsgType constants that reuse a retired
// frame type value. Unexported bound sentinels (maxMsgType) are
// exempt: they exist precisely to sit one past the last real type.
func checkRetiredFrameTypes(pass *analysis.Pass) {
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
					if !ok || !isNamed(obj.Type(), "MsgType") {
						continue
					}
					if strings.HasPrefix(name.Name, "max") || strings.HasPrefix(name.Name, "num") {
						continue
					}
					v, ok := constant.Uint64Val(obj.Val())
					if !ok {
						continue
					}
					if was, retired := retiredFrameTypes[v]; retired {
						pass.Reportf(name.Pos(),
							"frame type %d (%s) is retired and must never be reused; old captures and peers still interpret it", v, was)
					}
				}
			}
		}
	}
}

// --- small helpers ---

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

// constUint evaluates e as a constant unsigned integer.
func constUint(pass *analysis.Pass, e ast.Expr) (uint64, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Uint64Val(constant.ToInt(tv.Value))
}

// constString evaluates e as a constant string.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isNamed reports whether t (or its pointee) is a named type with the
// given name.
func isNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// scanVerbs extracts the verb letters of a format string in argument
// order, skipping %% and flag/width/precision characters. Indexed
// arguments (%[1]v) abort the scan — callers then skip verb checks.
func scanVerbs(format string) []byte {
	var out []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.IndexByte("+-# .0123456789*", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		if format[i] == '[' {
			return nil
		}
		out = append(out, format[i])
	}
	return out
}
