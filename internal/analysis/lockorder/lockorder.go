// Package lockorder is the whole-module lock analyzer. A struct
// field's `// guards:` comment names the mutex that protects its
// sibling fields:
//
//	mu sync.Mutex // guards: groups, ln, conns
//
// and a function's `// locked: mu` doc line says its callers hold mu
// (a bare `// locked:` covers every mutex of the receiver). The
// analyzer checks those annotations and the code they describe:
//
//   - a guards: list must sit on a single sync.Mutex/sync.RWMutex
//     field and name only fields of the same struct (a rename that
//     orphans the list is itself a diagnostic);
//   - a function that touches a guarded field must declare
//     `// locked:` for its mutex or call Lock/RLock on that mutex
//     somewhere in its body, nested function literals included. This
//     rule is lexical, not a path analysis: locking any instance's
//     mutex satisfies accesses through any value of the struct type.
//     It exists to catch the easy, common misuse — a new code path
//     reading s.groups without s.mu — because the coordinator is only
//     bit-identical to serial merging while every access to a merge
//     group's state happens under its group mutex;
//
// and it tracks which annotated mutexes each function may acquire,
// propagates those summaries across package boundaries as object
// facts, and reports the three ways the concurrent tier can wedge:
//
//   - self-deadlock: acquiring a mutex the function (or a transitive
//     callee) already holds — sync mutexes are not reentrant;
//   - lock ordering cycles: package P establishes mu1 → mu2 while
//     package Q establishes mu2 → mu1; each package exports its local
//     edges as a package fact and the package that closes the cycle
//     reports it with every edge's origin;
//   - blocking-while-locked: reaching an operation that may block
//     indefinitely — channel send/receive, select with no default,
//     time.Sleep, sync.WaitGroup.Wait, net dial/read/write/accept,
//     io.Reader/io.Writer calls (which is how client.Push* and the
//     wire codec are classified), or any call whose summary says so —
//     while a guards-annotated mutex is held. The relay tier's real
//     deadlock risk is exactly this shape: a flush that pushes
//     upstream TCP while holding a group lock stalls every absorb.
//
// The held-set tracking is lexical and per function declaration: a
// `x.Lock()` statement adds the mutex, `x.Unlock()` removes it,
// `defer x.Unlock()` keeps it held to the end of the body. A
// `// locked: mu` doc annotation seeds the held set from the
// receiver's annotated mutexes. Function literals launched with `go`
// are checked as separate goroutines (their acquisitions do not count
// against the enclosing call path); deferred and inline literals are
// folded into the enclosing function. Unannotated mutexes and
// _test.go files are ignored.
//
// Three fact types cross package boundaries: LockSummary (object
// fact: what a function may acquire, and whether it may block),
// GuardedMutexes (package fact: which "Struct.field" mutexes are
// annotated, so locking an exported foreign mutex resolves), and
// LockGraph (package fact: the package's local ordering edges).
//
// A reviewed escape mirrors mergepure:seam:
//
//	// lockorder:allow <reason>
//
// on the offending line (or the line above) suppresses lockorder's
// deadlock diagnostics there; the reason is mandatory — a bare
// annotation is itself reported.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// LockSummary is the object fact exported for a package-level function
// or method: the annotated mutexes it may (transitively) acquire, and
// whether it may block indefinitely.
type LockSummary struct {
	Acquires []LockAcquire
	Blocks   string // "" = not known to block; else a human-readable reason chain
}

// LockAcquire names one mutex a function may acquire and how.
type LockAcquire struct {
	Mutex string // "importpath.Struct.field"
	Via   string // human-readable chain, e.g. "locks server.group.mu in FlushRelay"
}

// AFact marks LockSummary as a fact type.
func (*LockSummary) AFact() {}

// GuardedMutexes is the package fact listing the package's
// `// guards:`-annotated mutex fields as "Struct.field" names, so a
// downstream package that locks an exported mutex field directly can
// recognize it.
type GuardedMutexes struct {
	Names []string
}

// AFact marks GuardedMutexes as a fact type.
func (*GuardedMutexes) AFact() {}

// LockGraph is the package fact carrying the package's local lock
// ordering edges: "while holding From, To was acquired at Site".
type LockGraph struct {
	Edges []LockEdge
}

// LockEdge is one ordering edge in the acquisition graph.
type LockEdge struct {
	From, To string
	Site     string // "FuncName (file.go:12)"
}

// AFact marks LockGraph as a fact type.
func (*LockGraph) AFact() {}

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "accesses to `// guards:`-annotated fields must hold the declared mutex; build whole-module " +
		"lock acquisition summaries and report self-deadlocks, cross-package ordering cycles, and " +
		"blocking calls made while locked",
	FactTypes: []analysis.Fact{(*LockSummary)(nil), (*GuardedMutexes)(nil), (*LockGraph)(nil)},
	Run:       run,
}

// allowPrefix introduces the reviewed blocking-while-locked escape.
const allowPrefix = "lockorder:allow"

// A heldLock is one mutex in the lexical held set.
type heldLock struct {
	id  string
	pos token.Pos
}

// A callEvent is one synchronous call made with a held-set snapshot.
type callEvent struct {
	pos  token.Pos
	fn   *types.Func
	held []heldLock
}

// A blockEvent is one directly blocking operation.
type blockEvent struct {
	pos  token.Pos
	desc string
	held []heldLock
}

// A structMutex is one annotated mutex field of a local struct.
type structMutex struct {
	field, id string
}

// A guard is the mutex that protects one guarded field.
type guard struct {
	structName, mutex, id string
}

// funcRec accumulates one function's lock behavior.
type funcRec struct {
	name     string
	pos      token.Pos
	obj      types.Object
	direct   map[string]token.Pos // mutex ID → first acquisition site
	calls    []callEvent
	deferred []*types.Func // `defer f()` callees: summary-only
	blocks   []blockEvent

	// resolve() results:
	acq             map[string]string // transitive: mutex ID → via chain
	blockReason     string
	visited, solved bool
}

type allowKey struct {
	file string
	line int
}

// localEdge is one ordering edge observed in this package.
type localEdge struct {
	from, to string
	pos      token.Pos
	site     string
}

// state is the per-pass working set.
type state struct {
	pass      *analysis.Pass
	annotated map[*types.Var]string      // local annotated mutex field → mutex ID
	guarded   map[*types.Var]guard       // local guarded field → its mutex
	byStruct  map[string][]structMutex   // local struct name → its annotated mutexes
	names     []string                   // local "Struct.field" names (GuardedMutexes fact)
	foreignMu map[string]map[string]bool // pkg path → annotated "Struct.field" set
	recs      []*funcRec
	byObj     map[types.Object]*funcRec
	edges     map[[2]string]*localEdge // (from, to) → first site
	allow     map[allowKey]bool
}

func run(pass *analysis.Pass) error {
	st := &state{
		pass:      pass,
		annotated: map[*types.Var]string{},
		guarded:   map[*types.Var]guard{},
		byStruct:  map[string][]structMutex{},
		foreignMu: map[string]map[string]bool{},
		byObj:     map[types.Object]*funcRec{},
		edges:     map[[2]string]*localEdge{},
	}
	st.buildAllow()
	st.collectMutexes()

	// Walk every non-test function declaration, tracking the lexical
	// held set and collecting acquire/call/block events.
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rec := &funcRec{
				name:   funcName(fd),
				pos:    fd.Pos(),
				obj:    pass.TypesInfo.Defs[fd.Name],
				direct: map[string]token.Pos{},
			}
			if rec.obj != nil {
				st.byObj[rec.obj] = rec
			}
			w := &walker{st: st, rec: rec, held: st.seedHeld(fd)}
			w.scan(fd.Body)
			st.recs = append(st.recs, rec)
			st.checkGuarded(fd)
		}
	}

	// Diagnostics: self-deadlocks and blocking-while-locked, plus the
	// call-derived ordering edges.
	for _, rec := range st.recs {
		st.checkRec(rec)
	}
	st.reportCycles()
	st.exportFacts()
	return nil
}

// --- annotation collection -------------------------------------------------

// collectMutexes indexes the package's `// guards:`-annotated mutex
// fields and the fields each guards, reporting an annotation that
// does not sit on one mutex field or lists a field its struct lacks.
func (st *state) collectMutexes() {
	pkgPath := analysis.TrimPkgPath(st.pass.Pkg.Path())
	for _, file := range st.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			stt, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			structName := ts.Name.Name
			fieldByName := map[string]*types.Var{}
			for _, f := range stt.Fields.List {
				for _, name := range f.Names {
					if v, ok := st.pass.TypesInfo.Defs[name].(*types.Var); ok {
						fieldByName[name.Name] = v
					}
				}
			}
			for _, f := range stt.Fields.List {
				names, ok := parseGuardList(f)
				if !ok {
					continue
				}
				var v *types.Var
				if len(f.Names) == 1 {
					v, _ = st.pass.TypesInfo.Defs[f.Names[0]].(*types.Var)
				}
				if v == nil || !isMutexType(v.Type()) {
					st.pass.Reportf(f.Pos(), "guards: annotation must sit on a single sync.Mutex/sync.RWMutex field")
					continue
				}
				id := pkgPath + "." + structName + "." + v.Name()
				st.annotated[v] = id
				st.byStruct[structName] = append(st.byStruct[structName],
					structMutex{field: v.Name(), id: id})
				st.names = append(st.names, structName+"."+v.Name())
				for _, g := range names {
					gv, ok := fieldByName[g]
					if !ok {
						st.pass.Reportf(f.Pos(), "guards: lists %q, which is not a field of %s (stale annotation after a rename?)", g, structName)
						continue
					}
					st.guarded[gv] = guard{structName: structName, mutex: v.Name(), id: id}
				}
			}
			return true
		})
	}
	sort.Strings(st.names)
}

// parseGuardList extracts the field names from a `// guards: a, b`
// comment attached to field f (doc or trailing). ok reports whether
// the comment is there at all: a bare `// guards:` annotates a mutex
// for the deadlock checks without guarding any field.
func parseGuardList(f *ast.Field) (names []string, ok bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, found := strings.CutPrefix(text, "guards:")
			if !found {
				continue
			}
			ok = true
			for _, n := range strings.Split(rest, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
	}
	return names, ok
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}

// mutexOf resolves a Lock/Unlock receiver expression to an annotated
// mutex ID: local fields through the annotation index, foreign fields
// through the owning package's GuardedMutexes fact.
func (st *state) mutexOf(x ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := st.pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() || !isMutexType(v.Type()) {
		return "", false
	}
	if id, ok := st.annotated[v]; ok {
		return id, true
	}
	pkg := v.Pkg()
	if pkg == nil {
		return "", false
	}
	path := analysis.TrimPkgPath(pkg.Path())
	if path == analysis.TrimPkgPath(st.pass.Pkg.Path()) {
		return "", false // local but unannotated
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	key := named.Obj().Name() + "." + v.Name()
	set, cached := st.foreignMu[path]
	if !cached {
		set = map[string]bool{}
		var gm GuardedMutexes
		if st.pass.ImportPackageFact(path, &gm) {
			for _, n := range gm.Names {
				set[n] = true
			}
		}
		st.foreignMu[path] = set
	}
	if set[key] {
		return path + "." + key, true
	}
	return "", false
}

// seedHeld builds the initial held set from a `// locked: mu` doc
// annotation: the named (or, bare, all) annotated mutexes of the
// receiver's struct are held by contract when the function runs.
func (st *state) seedHeld(fd *ast.FuncDecl) []heldLock {
	all, names := parseLockedAnnotation(fd)
	if !all && len(names) == 0 {
		return nil
	}
	recv := receiverTypeName(fd)
	if recv == "" {
		return nil
	}
	var held []heldLock
	for _, m := range st.byStruct[recv] {
		if all || names[m.field] {
			held = append(held, heldLock{id: m.id, pos: fd.Pos()})
		}
	}
	return held
}

// parseLockedAnnotation reads a `// locked:` doc-comment line: bare
// means every mutex, otherwise comma-separated names (with an optional
// trailing free-text reason per name).
func parseLockedAnnotation(fd *ast.FuncDecl) (all bool, names map[string]bool) {
	names = map[string]bool{}
	if fd.Doc == nil {
		return false, names
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, "locked:")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return true, names
		}
		for _, n := range strings.Split(rest, ",") {
			n = strings.TrimSpace(n)
			if i := strings.IndexAny(n, " \t"); i >= 0 {
				n = n[:i]
			}
			if n != "" {
				names[n] = true
			}
		}
	}
	return false, names
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func funcName(fd *ast.FuncDecl) string {
	if recv := receiverTypeName(fd); recv != "" {
		return recv + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// checkGuarded reports fd's accesses to guarded fields whose mutex fd
// neither declares with `// locked:` nor locks anywhere in its body.
func (st *state) checkGuarded(fd *ast.FuncDecl) {
	if len(st.guarded) == 0 {
		return
	}
	all, held := parseLockedAnnotation(fd)
	if all {
		return
	}
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			if id, ok := st.mutexOf(sel.X); ok {
				locked[id] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := st.pass.TypesInfo.Selections[sel]
		if !ok {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, ok := st.guarded[v]
		if !ok || locked[g.id] || held[g.mutex] {
			return true
		}
		st.pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %s.%s, but %s neither locks it nor declares `// locked: %s`",
			g.structName, v.Name(), g.structName, g.mutex, funcName(fd), g.mutex)
		return true
	})
}

// --- body walk -------------------------------------------------------------

// walker tracks the lexical held set through one function body.
type walker struct {
	st   *state
	rec  *funcRec
	held []heldLock
}

func (w *walker) snapshot() []heldLock {
	if len(w.held) == 0 {
		return nil
	}
	return append([]heldLock(nil), w.held...)
}

func (w *walker) release(id string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			out := make([]heldLock, 0, len(w.held)-1)
			out = append(out, w.held[:i]...)
			w.held = append(out, w.held[i+1:]...)
			return
		}
	}
}

func (w *walker) holds(id string) *heldLock {
	for i := range w.held {
		if w.held[i].id == id {
			return &w.held[i]
		}
	}
	return nil
}

// scan visits n and its children in source order, maintaining the held
// set. It is a pre-order walk: branch-local lock state leaks into the
// following statements (lexical, as documented).
func (w *walker) scan(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		w.scanGo(n)
		return
	case *ast.DeferStmt:
		w.scanDefer(n)
		return
	case *ast.SelectStmt:
		w.scanSelect(n)
		return
	case *ast.SendStmt:
		w.rec.blocks = append(w.rec.blocks,
			blockEvent{n.Arrow, "sends on a channel", w.snapshot()})
		w.scan(n.Chan)
		w.scan(n.Value)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.rec.blocks = append(w.rec.blocks,
				blockEvent{n.OpPos, "receives from a channel", w.snapshot()})
		}
		w.scan(n.X)
		return
	case *ast.RangeStmt:
		if tv, ok := w.st.pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.rec.blocks = append(w.rec.blocks,
					blockEvent{n.For, "ranges over a channel", w.snapshot()})
			}
		}
	case *ast.CallExpr:
		w.scanCall(n)
		return
	case *ast.FuncLit:
		// A literal that is not immediately invoked (assigned, passed as
		// a callback): check its body under the current held set — the
		// common case is synchronous invocation by the callee — and fold
		// its behavior into this function's record.
		sub := &walker{st: w.st, rec: w.rec, held: w.snapshot()}
		sub.scan(n.Body)
		return
	}
	w.children(n)
}

// children recurses into n's direct children in source order.
func (w *walker) children(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		w.scan(c)
		return false
	})
}

// scanGo handles `go f(...)`: the arguments are evaluated here, but
// the call runs on another goroutine, so its acquisitions never order
// against the caller's held set. A literal body is still checked as
// its own (unexported) record.
func (w *walker) scanGo(n *ast.GoStmt) {
	for _, a := range n.Call.Args {
		w.scan(a)
	}
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		rec := &funcRec{
			name:   "goroutine in " + w.rec.name,
			pos:    lit.Pos(),
			direct: map[string]token.Pos{},
		}
		sub := &walker{st: w.st, rec: rec}
		sub.scan(lit.Body)
		w.st.recs = append(w.st.recs, rec)
	} else if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
		w.scan(sel.X)
	}
}

// scanDefer handles `defer f(...)`: a deferred Unlock keeps the mutex
// held to the end of the body; a deferred literal runs with an unknown
// held set, so it is checked fresh and its acquisitions fold into the
// summary; a deferred named call contributes to the summary only.
func (w *walker) scanDefer(n *ast.DeferStmt) {
	if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			if _, ok := w.st.mutexOf(sel.X); ok {
				return
			}
		}
	}
	for _, a := range n.Call.Args {
		w.scan(a)
	}
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		sub := &walker{st: w.st, rec: w.rec}
		sub.scan(lit.Body)
		return
	}
	if fn := calleeFunc(w.st.pass, n.Call); fn != nil {
		w.rec.deferred = append(w.rec.deferred, fn)
	}
}

// scanSelect records a block event for a select with no default case
// and walks the clause bodies (communication expressions are skipped:
// select never blocks on an individual case).
func (w *walker) scanSelect(n *ast.SelectStmt) {
	hasDefault := false
	for _, c := range n.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.rec.blocks = append(w.rec.blocks,
			blockEvent{n.Select, "blocks in a select with no default case", w.snapshot()})
	}
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, s := range cc.Body {
			w.scan(s)
		}
	}
}

// scanCall handles mutex operations, immediately-invoked literals, and
// ordinary calls.
func (w *walker) scanCall(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if id, ok := w.st.mutexOf(sel.X); ok {
				if h := w.holds(id); h != nil {
					w.st.report(call.Pos(),
						"%s re-locks %s (held since %s) — guaranteed self-deadlock: sync mutexes are not reentrant",
						w.rec.name, shortMutex(id), w.st.posStr(h.pos))
				} else {
					for _, h := range w.held {
						w.st.addEdge(h.id, id, call.Pos(), w.rec.name)
					}
					w.held = append(w.held, heldLock{id: id, pos: call.Pos()})
				}
				if _, seen := w.rec.direct[id]; !seen {
					w.rec.direct[id] = call.Pos()
				}
				return
			}
		case "Unlock", "RUnlock":
			if id, ok := w.st.mutexOf(sel.X); ok {
				w.release(id)
				return
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked: the body runs right here, under the
		// current held set, and its lock state flows onward.
		for _, a := range call.Args {
			w.scan(a)
		}
		w.children(lit.Body)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scan(sel.X)
	}
	for _, a := range call.Args {
		w.scan(a)
	}
	fn := calleeFunc(w.st.pass, call)
	if fn == nil {
		return
	}
	if desc := directBlockDesc(fn); desc != "" {
		w.rec.blocks = append(w.rec.blocks, blockEvent{call.Pos(), desc, w.snapshot()})
		return
	}
	w.rec.calls = append(w.rec.calls, callEvent{call.Pos(), fn, w.snapshot()})
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

// directBlockDesc classifies callees that may block indefinitely on
// their own: sleeps, WaitGroup/Cond waits, and the net/io calls that
// sit under every wire read, write, and dial in the repo. Close and
// deadline setters are deliberately absent — shutdown paths call them
// under coordinator locks, and they do not block.
func directBlockDesc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	name := fn.Name()
	switch pkg.Path() {
	case "time":
		if name == "Sleep" {
			return "calls time.Sleep"
		}
	case "sync":
		if name == "Wait" {
			return "calls sync." + recvTypeOf(fn) + ".Wait"
		}
	case "net":
		if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") ||
			name == "Read" || name == "Write" || name == "Accept" {
			return "performs net I/O (net." + methodDisplay(fn) + ")"
		}
	case "io":
		switch name {
		case "Read", "Write", "ReadFull", "ReadAtLeast", "ReadAll",
			"Copy", "CopyN", "CopyBuffer", "WriteString":
			return "performs io." + methodDisplay(fn) + " I/O"
		}
	}
	return ""
}

// recvTypeOf names a method's receiver type ("WaitGroup"), or "".
func recvTypeOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func methodDisplay(fn *types.Func) string {
	if recv := recvTypeOf(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// --- summary resolution ----------------------------------------------------

// summaryOf returns fn's transitive (acquires, blocks) summary: local
// functions resolve through their records, everything else through an
// imported LockSummary fact (a miss means "acquires nothing, never
// blocks" — interface calls and closed-source callees are trusted).
func (st *state) summaryOf(fn *types.Func) (map[string]string, string) {
	if rec, ok := st.byObj[types.Object(fn)]; ok {
		st.resolve(rec)
		return rec.acq, rec.blockReason
	}
	var s LockSummary
	if st.pass.ImportObjectFact(fn, &s) {
		acq := make(map[string]string, len(s.Acquires))
		for _, a := range s.Acquires {
			acq[a.Mutex] = a.Via
		}
		return acq, s.Blocks
	}
	return nil, ""
}

// resolve computes rec's transitive acquire set and blocking reason
// (memoized, with a cycle guard for recursion).
func (st *state) resolve(rec *funcRec) {
	if rec.solved || rec.visited {
		return
	}
	rec.visited = true
	defer func() { rec.visited = false; rec.solved = true }()

	rec.acq = make(map[string]string, len(rec.direct))
	for id := range rec.direct {
		rec.acq[id] = "locks " + shortMutex(id) + " in " + rec.name
	}
	if len(rec.blocks) > 0 {
		rec.blockReason = rec.blocks[0].desc
	}
	merge := func(fn *types.Func) {
		acq, blocks := st.summaryOf(fn)
		for _, m := range sortedKeys(acq) {
			if _, ok := rec.acq[m]; !ok {
				rec.acq[m] = "calls " + st.fnDisplay(fn) + ", which " + acq[m]
			}
		}
		if rec.blockReason == "" && blocks != "" {
			rec.blockReason = "calls " + st.fnDisplay(fn) + ", which " + blocks
		}
	}
	for _, ev := range rec.calls {
		merge(ev.fn)
	}
	for _, fn := range rec.deferred {
		merge(fn)
	}
}

// checkRec reports rec's self-deadlocks and blocking-while-locked
// findings, and records the ordering edges its calls imply.
func (st *state) checkRec(rec *funcRec) {
	for _, ev := range rec.blocks {
		if len(ev.held) == 0 {
			continue
		}
		h := ev.held[len(ev.held)-1]
		st.report(ev.pos,
			"%s %s while holding %s (locked at %s) — may block indefinitely with the lock held; unlock first, or annotate a reviewed bounded wait with // lockorder:allow <reason>",
			rec.name, ev.desc, shortMutex(h.id), st.posStr(h.pos))
	}
	for _, ev := range rec.calls {
		if len(ev.held) == 0 {
			continue
		}
		acq, blocks := st.summaryOf(ev.fn)
		for _, h := range ev.held {
			for _, m := range sortedKeys(acq) {
				if m == h.id {
					st.report(ev.pos,
						"%s calls %s while holding %s, and %s %s — self-deadlock: sync mutexes are not reentrant",
						rec.name, st.fnDisplay(ev.fn), shortMutex(h.id), st.fnDisplay(ev.fn), acq[m])
					continue
				}
				st.addEdge(h.id, m, ev.pos, rec.name)
			}
		}
		if blocks != "" {
			h := ev.held[len(ev.held)-1]
			st.report(ev.pos,
				"%s calls %s, which %s, while holding %s (locked at %s) — may block indefinitely with the lock held; unlock first, or annotate a reviewed bounded wait with // lockorder:allow <reason>",
				rec.name, st.fnDisplay(ev.fn), blocks, shortMutex(h.id), st.posStr(h.pos))
		}
	}
}

// addEdge records a local ordering edge (first site wins).
func (st *state) addEdge(from, to string, pos token.Pos, fn string) {
	if from == to {
		return
	}
	key := [2]string{from, to}
	if _, ok := st.edges[key]; ok {
		return
	}
	st.edges[key] = &localEdge{
		from: from, to: to, pos: pos,
		site: fn + " (" + st.posStr(pos) + ")",
	}
}

// --- cycle detection -------------------------------------------------------

// graphEdge is one edge of the combined (local + imported) graph.
type graphEdge struct {
	to, site string
}

// reportCycles combines this package's edges with every imported
// LockGraph fact and reports each ordering cycle that a local edge
// closes. Go's import graph is acyclic, so for any cross-package
// cycle exactly one package sees all of its edges — the reporting is
// naturally deduplicated at the package that closes the cycle.
func (st *state) reportCycles() {
	if len(st.edges) == 0 {
		return
	}
	adj := map[string][]graphEdge{}
	own := analysis.TrimPkgPath(st.pass.Pkg.Path())
	for _, pf := range st.pass.AllPackageFacts() {
		g, ok := pf.Fact.(*LockGraph)
		if !ok || analysis.TrimPkgPath(pf.Path) == own {
			continue
		}
		for _, e := range g.Edges {
			adj[e.From] = append(adj[e.From], graphEdge{e.To, e.Site})
		}
	}
	locals := make([]*localEdge, 0, len(st.edges))
	for _, e := range st.edges {
		adj[e.from] = append(adj[e.from], graphEdge{e.to, e.site})
		locals = append(locals, e)
	}
	for from := range adj {
		es := adj[from]
		sort.Slice(es, func(i, j int) bool {
			return es[i].to < es[j].to || (es[i].to == es[j].to && es[i].site < es[j].site)
		})
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].pos < locals[j].pos })

	reported := map[string]bool{}
	for _, e := range locals {
		path := findPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		nodes := []string{e.from, e.to}
		var chain strings.Builder
		chain.WriteString(shortMutex(e.from) + " → " + shortMutex(e.to))
		cur := e.to
		for _, step := range path {
			chain.WriteString(" → " + shortMutex(step.to) + " (" + shortMutex(cur) +
				" → " + shortMutex(step.to) + " at " + step.site + ")")
			if step.to != e.from {
				nodes = append(nodes, step.to)
			}
			cur = step.to
		}
		sort.Strings(nodes)
		key := strings.Join(nodes, "|")
		if reported[key] {
			continue
		}
		reported[key] = true
		st.report(e.pos, "lock ordering cycle: %s — this call acquires %s while %s is held; consistent acquisition order required",
			chain.String(), shortMutex(e.to), shortMutex(e.from))
	}
}

// findPath returns a shortest edge path from `from` to `to` over adj,
// or nil. BFS over a deterministic adjacency order.
func findPath(adj map[string][]graphEdge, from, to string) []graphEdge {
	type queued struct {
		node string
		path []graphEdge
	}
	seen := map[string]bool{from: true}
	queue := []queued{{node: from}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, e := range adj[q.node] {
			path := append(append([]graphEdge(nil), q.path...), e)
			if e.to == to {
				return path
			}
			if !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, queued{e.to, path})
			}
		}
	}
	return nil
}

// --- fact export -----------------------------------------------------------

// exportFacts publishes the package's annotated mutexes, ordering
// edges, and per-function lock summaries.
func (st *state) exportFacts() {
	if len(st.names) > 0 {
		st.pass.ExportPackageFact(&GuardedMutexes{Names: st.names})
	}
	if len(st.edges) > 0 {
		keys := make([][2]string, 0, len(st.edges))
		for k := range st.edges {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		g := &LockGraph{}
		for _, k := range keys {
			e := st.edges[k]
			g.Edges = append(g.Edges, LockEdge{From: e.from, To: e.to, Site: e.site})
		}
		st.pass.ExportPackageFact(g)
	}
	for _, rec := range st.recs {
		if rec.obj == nil {
			continue
		}
		st.resolve(rec)
		if len(rec.acq) == 0 && rec.blockReason == "" {
			continue
		}
		if _, ok := analysis.ObjectPath(rec.obj); !ok {
			continue
		}
		s := &LockSummary{Blocks: rec.blockReason}
		for _, m := range sortedKeys(rec.acq) {
			s.Acquires = append(s.Acquires, LockAcquire{Mutex: m, Via: rec.acq[m]})
		}
		st.pass.ExportObjectFact(rec.obj, s)
	}
}

// --- lockorder:allow -------------------------------------------------------

// buildAllow indexes `// lockorder:allow <reason>` annotations. A bare
// annotation still suppresses (it was clearly intentional) but is
// reported: the reason is the review.
func (st *state) buildAllow() {
	st.allow = map[allowKey]bool{}
	for _, f := range st.pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				text = strings.TrimPrefix(text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := st.pass.Fset.Position(c.Pos())
				if strings.TrimSpace(text[len(allowPrefix):]) == "" {
					st.pass.Reportf(c.Pos(),
						"lockorder:allow needs a reason: say why this wait is bounded and cannot wedge the lock's other users")
				}
				st.allow[allowKey{pos.Filename, pos.Line}] = true
				st.allow[allowKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
}

// report emits a diagnostic unless a lockorder:allow annotation covers
// its line (unionlint:allow lockorder applies too, via Reportf).
func (st *state) report(pos token.Pos, format string, args ...any) {
	p := st.pass.Fset.Position(pos)
	if st.allow[allowKey{p.Filename, p.Line}] {
		return
	}
	st.pass.Reportf(pos, format, args...)
}

// --- small helpers ---------------------------------------------------------

// shortMutex trims a mutex ID's import path to its last element:
// "repro/internal/server.group.mu" → "server.group.mu".
func shortMutex(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

// posStr renders a position as "file.go:12".
func (st *state) posStr(pos token.Pos) string {
	p := st.pass.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// fnDisplay renders a callee for diagnostics: local functions by name,
// foreign ones package-qualified.
func (st *state) fnDisplay(fn *types.Func) string {
	name := fn.Name()
	if p, ok := analysis.ObjectPath(fn); ok {
		name = p
	}
	if fn.Pkg() != nil && fn.Pkg() != st.pass.Pkg {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
