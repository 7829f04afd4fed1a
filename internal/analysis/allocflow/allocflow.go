// Package allocflow is the interprocedural allocation-flow analyzer:
// it proves, module-wide, how many times a `// hotpath:`-annotated
// function may allocate per call — including allocations hiding
// arbitrarily many calls deep — and gates that number against a
// checked-in budget.
//
// Every function gets an AllocSummary: its classified syntactic
// allocation sites (append, composite, make, new, closure, conversion,
// interface boxing) plus the calls whose cost the analyzer cannot
// bound (interface methods, func values, reflection, allocating
// stdlib entry points) as a `calls-unknown` escape hatch. Summaries
// are transitive — a function inherits its callees' summaries with
// multiplicity — and are exported as object facts, so taint crosses
// package boundaries through all three drivers exactly like
// mergepure's Impure and lockorder's LockSummary. A fact miss means
// "allocation-free": the lattice bottom.
//
// Findings are reported only for `// hotpath:` roots (the per-item
// Process/Merge/decode/absorb paths, where one allocation multiplies
// by the stream length): each (root, owner, kind) bucket of the
// root's transitive closure is compared against
// lint/allocflow.baseline and reported when over budget. The baseline
// is generated, never hand-edited:
//
//	go run ./cmd/unionlint -allocflow.update ./...
//
// Two annotations refine the model, and both demand a reason —
// a bare annotation is itself a finding, like lockorder's discipline:
//
//	// allocflow:amortized <reason>
//	// allocflow:cold <reason>
//
// `amortized` marks a reviewed growth site on its line (or the line
// below); on a call, it marks every site the callee allocates. A
// marked site stays in the summary — runtime ceilings still count it
// — but it is never reported and never baselined, because its
// steady-state cost is zero (slice doubling, one-time lazy init).
// `cold` prunes the statement it covers entirely: the branch is
// unreachable on the hot path (error returns, rotation, chaos hooks).
//
// The model is deliberately syntactic and over-approximate — escape
// analysis may keep any site on the stack — with these documented
// axioms: map writes are charged to the map's make site (growth is
// amortized by construction); open-coded defers and method-value
// closures are not charged; a curated stdlib table marks formatting
// and building entry points (fmt, errors.New, strconv.Format*,
// strings/bytes builders, sort.Slice, reflect) as unknown and
// strconv/binary Append* as caller-owned append sites; every other
// fact-less callee is allocation-free. AllocSummary.Ceiling converts
// a summary into a malloc upper bound with per-kind weights, which is
// what TestHotPathAllocSummaries and gtbench check observed
// testing.AllocsPerRun numbers against — the runtime cross-check that
// keeps these static verdicts honest.
//
// _test.go files are skipped.
package allocflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var baselineFlag = &analysis.Flag{
	Name:  "baseline",
	Usage: "path to the allocation-budget baseline file (default: <module>/lint/allocflow.baseline)",
}

var writeFlag = &analysis.Flag{
	Name:  "write",
	Usage: "set to 1/true to append observed hotpath allocation buckets to the baseline file instead of reporting",
}

// Analyzer is the allocflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "allocflow",
	Doc:       "interprocedural allocation-flow facts; budget `// hotpath:` roots' transitive allocations (baseline-gated)",
	Flags:     []*analysis.Flag{baselineFlag, writeFlag},
	FactTypes: []analysis.Fact{(*AllocSummary)(nil)},
	Run:       run,
}

// KindCallsUnknown is the baseline bucket kind for dynamic calls the
// analyzer cannot bound.
const KindCallsUnknown = "calls-unknown"

// An AllocSummary is the object fact exported for every function that
// may allocate: its transitive allocation sites and unbounded calls.
// Absence of the fact means the function is allocation-free.
type AllocSummary struct {
	Sites   []AllocSite
	Unknown []DynCall
}

// AFact marks AllocSummary as a fact.
func (*AllocSummary) AFact() {}

// An AllocSite is one aggregated allocation bucket in a function's
// transitive closure.
type AllocSite struct {
	Owner     string // pkg-qualified function the sites are written in
	Kind      string // append | composite | make | new | closure | conversion | interface
	Count     int    // syntactic sites (multiplied by call multiplicity)
	Looped    bool   // inside a loop somewhere along the chain
	Amortized bool   // reviewed via // allocflow:amortized
	Via       string // call chain from the summarized function, "" if direct
}

// A DynCall is one aggregated call the analyzer cannot see through:
// an interface method, a func value, reflection, or an allocating
// stdlib entry point.
type DynCall struct {
	Owner string // pkg-qualified function containing the call
	Desc  string // stable description, e.g. "interface call (repro/internal/sketch.Sketch).Merge"
	Count int
	Via   string
}

// SiteWeight is the documented malloc upper bound per site of a kind,
// used by Ceiling. The weights are deliberately generous — a make(map)
// is an hmap plus a bucket array, a closure is its object plus boxed
// captures — because the runtime cross-check only needs "observed ≤
// ceiling" to hold, and tightness only matters near zero.
func SiteWeight(kind string) int {
	switch kind {
	case "append":
		return 2 // grown backing array + growth bookkeeping
	case "make":
		return 4 // map: hmap + bucket array; slice/chan: backing store
	case "composite":
		return 3 // the literal + escape-boxed interior values
	case "new":
		return 1
	case "closure":
		return 3 // closure object + boxed captures
	case "conversion":
		return 1 // fresh string or slice backing store
	case "interface":
		return 1 // boxed non-pointer value
	}
	return 4
}

// Ceiling converts the summary into a malloc upper bound per call.
// bounded is false when the summary contains an unknown call or a
// looped, non-amortized site — then no finite static bound exists and
// runtime gates must skip the numeric comparison (or resolve the
// unknown seams explicitly, as internal/analysis/allocbudget does).
// Amortized sites still count toward the ceiling: steady state may
// occasionally pay them.
func (s *AllocSummary) Ceiling() (mallocs int, bounded bool) {
	bounded = true
	for _, st := range s.Sites {
		mallocs += st.Count * SiteWeight(st.Kind)
		if st.Looped && !st.Amortized {
			bounded = false
		}
	}
	if len(s.Unknown) > 0 {
		bounded = false
	}
	return mallocs, bounded
}

// annPrefix* introduce the two allocflow annotations.
const (
	annAmortized = "allocflow:amortized"
	annCold      = "allocflow:cold"
)

// lineKey addresses one source line.
type lineKey struct {
	file string
	line int
}

// siteEvent is one syntactic allocation observed during collection.
type siteEvent struct {
	pos       token.Pos
	kind      string
	count     int
	looped    bool
	amortized bool
}

// callEvent is one statically-resolved call to a function that may
// have a summary.
type callEvent struct {
	pos       token.Pos
	fn        *types.Func
	looped    bool
	amortized bool // the callee's sites inherit the call line's annotation
}

// dynEvent is one call the analyzer cannot see through.
type dynEvent struct {
	pos    token.Pos
	desc   string
	looped bool
}

// funcRec is the per-function working record.
type funcRec struct {
	short string // display name, e.g. "Sketch.Process"
	owner string // pkg-qualified, e.g. "repro/internal/sketch/kmv.Sketch.Process"
	obj   types.Object
	hot   bool

	sites []siteEvent
	calls []callEvent
	dyns  []dynEvent

	state int // 0 unresolved, 1 resolving, 2 done
	res   *resolved
}

const (
	stateUnresolved = iota
	stateResolving
	stateDone
)

// bucketKey aggregates sites by where they live and what they are.
// Amortized buckets are kept apart: they count in ceilings but are
// never gated.
type bucketKey struct {
	owner     string
	kind      string
	amortized bool
}

// dynKey aggregates unknown calls.
type dynKey struct {
	owner string
	desc  string
}

// bucket is one aggregated entry with a representative local position
// for reporting.
type bucket struct {
	count  int
	looped bool
	pos    token.Pos
	via    string
}

// resolved is a function's transitive closure.
type resolved struct {
	sites map[bucketKey]*bucket
	dyns  map[dynKey]*bucket
	sum   *AllocSummary // built lazily, deterministic order
}

// state is the per-pass working set.
type state struct {
	pass  *analysis.Pass
	recs  map[types.Object]*funcRec
	order []*funcRec

	amortized map[lineKey]bool // reasoned allocflow:amortized lines (own + next)
	cold      map[lineKey]bool // reasoned allocflow:cold lines (own + next)
}

func run(pass *analysis.Pass) error {
	st := &state{
		pass:      pass,
		recs:      map[types.Object]*funcRec{},
		amortized: map[lineKey]bool{},
		cold:      map[lineKey]bool{},
	}
	st.scanAnnotations()
	st.collect()
	for _, rec := range st.order {
		st.resolve(rec)
	}
	st.exportFacts()

	if isSet(writeFlag.Value) {
		return st.writeBaseline()
	}
	baseline, err := st.loadBaseline()
	if err != nil {
		return err
	}
	st.report(baseline)
	return nil
}

// scanAnnotations indexes allocflow:amortized / allocflow:cold
// comments. Each covers its own line and the next, like
// unionlint:allow. A bare annotation — no reason — is a finding and
// covers nothing.
func (st *state) scanAnnotations() {
	for _, f := range st.pass.Files {
		if st.pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
				var m map[lineKey]bool
				var ann string
				switch {
				case strings.HasPrefix(text, annAmortized):
					m, ann = st.amortized, annAmortized
				case strings.HasPrefix(text, annCold):
					m, ann = st.cold, annCold
				default:
					continue
				}
				reason := strings.TrimSpace(text[len(ann):])
				if reason == "" {
					st.pass.Reportf(c.Pos(),
						"bare %s annotation: state the reason (// %s <reason>)", ann, ann)
					continue
				}
				cp := st.pass.Fset.Position(c.Pos())
				m[lineKey{cp.Filename, cp.Line}] = true
				m[lineKey{cp.Filename, cp.Line + 1}] = true
			}
		}
	}
}

func (st *state) amortizedAt(pos token.Pos) bool {
	p := st.pass.Fset.Position(pos)
	return st.amortized[lineKey{p.Filename, p.Line}]
}

func (st *state) coldAt(pos token.Pos) bool {
	p := st.pass.Fset.Position(pos)
	return st.cold[lineKey{p.Filename, p.Line}]
}

// collect builds a funcRec for every non-test function declaration.
func (st *state) collect() {
	for _, file := range st.pass.Files {
		if st.pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := st.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			rec := &funcRec{
				short: funcName(fd),
				owner: st.pass.PkgPath() + "." + funcName(fd),
				obj:   obj,
				hot:   isHotpath(fd),
			}
			st.walkBody(rec, fd.Body)
			st.recs[obj] = rec
			st.order = append(st.order, rec)
		}
	}
}

// walkBody walks one function body tracking loop depth and pruning
// statements covered by a reasoned allocflow:cold annotation.
// Everything inside a for/range statement (including init/cond, an
// accepted over-approximation) is "looped"; function-literal bodies
// fold into the enclosing function, since the literal usually runs on
// the same path that built it.
func (st *state) walkBody(rec *funcRec, body *ast.BlockStmt) {
	var stack []ast.Node
	loopDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			return true
		}
		if _, isStmt := n.(ast.Stmt); isStmt && n != ast.Node(body) && st.coldAt(n.Pos()) {
			return false // pruned: reviewed-cold branch
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		}
		stack = append(stack, n)
		st.visit(rec, n, loopDepth > 0)
		return true
	})
}

// visit classifies one node into site/call/dyn events.
func (st *state) visit(rec *funcRec, n ast.Node, looped bool) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		if isZeroSizeStruct(st.pass.TypesInfo.TypeOf(n)) {
			return // struct{}{} and friends provably never heap-allocate
		}
		st.addSite(rec, n.Pos(), "composite", 1, looped)
	case *ast.FuncLit:
		st.addSite(rec, n.Pos(), "closure", 1, looped)
	case *ast.GoStmt:
		st.addDyn(rec, n.Pos(), "go statement (spawns a goroutine)", looped)
	case *ast.CallExpr:
		st.visitCall(rec, n, looped)
	}
}

func (st *state) addSite(rec *funcRec, pos token.Pos, kind string, count int, looped bool) {
	rec.sites = append(rec.sites, siteEvent{
		pos:       pos,
		kind:      kind,
		count:     count,
		looped:    looped,
		amortized: st.amortizedAt(pos),
	})
}

func (st *state) addDyn(rec *funcRec, pos token.Pos, desc string, looped bool) {
	rec.dyns = append(rec.dyns, dynEvent{pos: pos, desc: desc, looped: looped})
}

// visitCall classifies a call: builtin allocator, allocating
// conversion, interface-boxing arguments, resolved static call, or
// unknown dynamic call. Children (nested calls, literal arguments)
// are visited by the surrounding walk.
func (st *state) visitCall(rec *funcRec, call *ast.CallExpr, looped bool) {
	fun := unparen(call.Fun)

	// Type conversion T(x).
	if tv, ok := st.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		st.classifyConversion(rec, call, tv.Type, looped)
		return
	}

	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = st.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = st.pass.TypesInfo.Uses[f.Sel]
	}

	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make", "new", "append":
			st.addSite(rec, call.Pos(), b.Name(), 1, looped)
		}
		return
	}

	// Interface boxing of arguments + the variadic backing slice.
	if sig, ok := st.pass.TypesInfo.TypeOf(fun).(*types.Signature); ok && sig != nil {
		st.scanArgBoxing(rec, call, sig, looped)
	}

	fn, ok := obj.(*types.Func)
	if !ok {
		// A func value: a local variable, struct field (registry Decode
		// hooks), or parameter — statically opaque.
		st.addDyn(rec, call.Pos(), "dynamic call "+types.ExprString(fun), looped)
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rt := sig.Recv().Type(); types.IsInterface(rt) {
			st.addDyn(rec, call.Pos(),
				fmt.Sprintf("interface call (%s).%s", typeDisplay(rt), fn.Name()), looped)
			return
		}
	}
	if fn.Pkg() == nil {
		return // universe-scope (error.Error is caught above)
	}
	pkgPath := analysis.TrimPkgPath(fn.Pkg().Path())
	switch stdlibVerdict(pkgPath, fn.Name()) {
	case "append":
		// strconv.AppendUint, binary.LittleEndian.AppendUint64, Buffer
		// growth: an append-shaped site owned by the caller.
		st.addSite(rec, call.Pos(), "append", 1, looped)
		return
	case "unknown":
		st.addDyn(rec, call.Pos(),
			fmt.Sprintf("calls %s.%s (allocating stdlib)", pkgPath, fn.Name()), looped)
		return
	}
	rec.calls = append(rec.calls, callEvent{pos: call.Pos(), fn: fn, looped: looped, amortized: st.amortizedAt(call.Pos())})
}

// classifyConversion records conversions that copy memory: string ↔
// byte/rune slice (either direction) and integer → string. Interface
// conversions box their operand. Everything else (numeric, named-type
// relabeling) is free.
func (st *state) classifyConversion(rec *funcRec, call *ast.CallExpr, to types.Type, looped bool) {
	if types.IsInterface(to) {
		if len(call.Args) == 1 && !isInterfaceOrNil(st.pass.TypesInfo, call.Args[0]) {
			st.addSite(rec, call.Pos(), "interface", 1, looped)
		}
		return
	}
	if len(call.Args) != 1 {
		return
	}
	from := st.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	toStr := isBasicKind(toU, types.IsString)
	fromStr := isBasicKind(fromU, types.IsString)
	switch {
	case toStr && !fromStr: // string(b), string(runes), string(r)
		st.addSite(rec, call.Pos(), "conversion", 1, looped)
	case !toStr && fromStr && isByteOrRuneSlice(toU): // []byte(s), []rune(s)
		st.addSite(rec, call.Pos(), "conversion", 1, looped)
	}
}

// scanArgBoxing charges one "interface" site per non-interface value
// passed to an interface-typed parameter (boxing), and one "make" site
// for the backing slice of a non-empty variadic call.
func (st *state) scanArgBoxing(rec *funcRec, call *ast.CallExpr, sig *types.Signature, looped bool) {
	params := sig.Params()
	n := params.Len()
	var variadicElem types.Type
	if sig.Variadic() && n > 0 {
		if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
			variadicElem = sl.Elem()
		}
	}
	boxed, varargs := 0, 0
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type() // slice passed whole
			} else {
				pt = variadicElem
				varargs++
			}
		case i < n:
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isInterfaceOrNil(st.pass.TypesInfo, arg) {
			continue
		}
		boxed++
	}
	if boxed > 0 {
		st.addSite(rec, call.Pos(), "interface", boxed, looped)
	}
	if varargs > 0 && variadicElem != nil {
		st.addSite(rec, call.Pos(), "make", 1, looped)
	}
}

// stdlibVerdict is the curated standard-library model: "" means
// allocation-free (the default for every fact-less callee), "append"
// means an append-shaped caller-owned site, "unknown" means the call
// allocates in ways the analyzer does not model per-site.
func stdlibVerdict(pkgPath, name string) string {
	switch pkgPath {
	case "fmt":
		return "unknown" // every fmt entry point formats into fresh memory
	case "errors":
		switch name {
		case "New", "Join", "As":
			return "unknown"
		}
	case "strconv":
		switch {
		case strings.HasPrefix(name, "Append"):
			return "append"
		case strings.HasPrefix(name, "Format"), strings.HasPrefix(name, "Quote"),
			name == "Itoa", name == "Unquote":
			return "unknown"
		}
	case "encoding/binary":
		switch {
		case strings.HasPrefix(name, "Append"):
			return "append"
		case name == "Read", name == "Write", name == "Size":
			return "unknown" // reflection-based
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "SplitN", "SplitAfter", "SplitAfterN",
			"Fields", "FieldsFunc", "Replace", "ReplaceAll", "Map", "Clone",
			"ToUpper", "ToLower", "ToTitle", "ToValidUTF8", "NewReader", "NewReplacer":
			return "unknown"
		case "WriteString", "WriteByte", "WriteRune", "Grow", "String": // strings.Builder
			return "append"
		}
	case "bytes":
		switch name {
		case "Join", "Repeat", "Split", "SplitN", "SplitAfter", "SplitAfterN",
			"Fields", "FieldsFunc", "Replace", "ReplaceAll", "Map", "Clone",
			"ToUpper", "ToLower", "NewBuffer", "NewBufferString", "NewReader":
			return "unknown"
		case "Write", "WriteString", "WriteByte", "WriteRune", "Grow", "String": // bytes.Buffer
			return "append"
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable": // reflect-based
			return "unknown"
		}
	case "time":
		switch name {
		case "After", "Tick", "NewTimer", "NewTicker":
			return "unknown"
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "MkdirAll", "ReadDir":
			return "unknown"
		}
	case "reflect":
		return "unknown"
	case "regexp":
		return "unknown"
	}
	return ""
}

// resolve computes rec's transitive closure, memoized, with a cycle
// guard: a recursive call has unbounded multiplicity, so it degrades
// to an unknown rather than under-counting.
func (st *state) resolve(rec *funcRec) *resolved {
	if rec.state == stateDone {
		return rec.res
	}
	rec.state = stateResolving
	res := &resolved{sites: map[bucketKey]*bucket{}, dyns: map[dynKey]*bucket{}}
	for _, s := range rec.sites {
		res.addSite(bucketKey{rec.owner, s.kind, s.amortized}, s.count, s.looped, s.pos, "")
	}
	for _, d := range rec.dyns {
		res.addDyn(dynKey{rec.owner, d.desc}, 1, d.looped, d.pos, "")
	}
	for _, ev := range rec.calls {
		sub, cyclic := st.summaryOf(ev.fn)
		if cyclic {
			res.addDyn(dynKey{rec.owner, "recursive call to " + fnDisplay(ev.fn)},
				1, ev.looped, ev.pos, "")
			continue
		}
		if sub == nil {
			continue // allocation-free callee
		}
		for _, s := range sub.Sites {
			res.addSite(bucketKey{s.Owner, s.Kind, s.Amortized || ev.amortized},
				s.Count, s.Looped || ev.looped, ev.pos, extendVia(ev.fn, s.Via))
		}
		for _, d := range sub.Unknown {
			res.addDyn(dynKey{d.Owner, d.Desc}, d.Count, ev.looped, ev.pos, extendVia(ev.fn, d.Via))
		}
	}
	rec.state = stateDone
	rec.res = res
	return res
}

// summaryOf returns the callee's summary: a locally resolved record,
// an imported fact, or nil (allocation-free). cyclic reports a
// recursion cycle in progress.
func (st *state) summaryOf(fn *types.Func) (sum *AllocSummary, cyclic bool) {
	if r, ok := st.recs[types.Object(fn)]; ok {
		if r.state == stateResolving {
			return nil, true
		}
		return st.resolve(r).summary(), false
	}
	var fact AllocSummary
	if st.pass.ImportObjectFact(fn, &fact) {
		return &fact, false
	}
	return nil, false
}

func (r *resolved) addSite(k bucketKey, count int, looped bool, pos token.Pos, via string) {
	b := r.sites[k]
	if b == nil {
		b = &bucket{pos: pos, via: via}
		r.sites[k] = b
	}
	b.count += count
	b.looped = b.looped || looped
}

func (r *resolved) addDyn(k dynKey, count int, looped bool, pos token.Pos, via string) {
	b := r.dyns[k]
	if b == nil {
		b = &bucket{pos: pos, via: via}
		r.dyns[k] = b
	}
	b.count += count
	b.looped = b.looped || looped
}

// summary renders the closure in deterministic order.
func (r *resolved) summary() *AllocSummary {
	if r.sum != nil {
		return r.sum
	}
	s := &AllocSummary{}
	for k, b := range r.sites {
		s.Sites = append(s.Sites, AllocSite{
			Owner: k.owner, Kind: k.kind, Count: b.count,
			Looped: b.looped, Amortized: k.amortized, Via: b.via,
		})
	}
	sort.Slice(s.Sites, func(i, j int) bool {
		a, b := s.Sites[i], s.Sites[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return !a.Amortized && b.Amortized
	})
	for k, b := range r.dyns {
		s.Unknown = append(s.Unknown, DynCall{Owner: k.owner, Desc: k.desc, Count: b.count, Via: b.via})
	}
	sort.Slice(s.Unknown, func(i, j int) bool {
		a, b := s.Unknown[i], s.Unknown[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Desc < b.Desc
	})
	r.sum = s
	return s
}

// exportFacts publishes every non-empty summary whose function has a
// stable object path.
func (st *state) exportFacts() {
	for _, rec := range st.order {
		sum := st.resolve(rec).summary()
		if len(sum.Sites)+len(sum.Unknown) == 0 {
			continue
		}
		if _, ok := analysis.ObjectPath(rec.obj); !ok {
			continue
		}
		st.pass.ExportObjectFact(rec.obj, sum)
	}
}

// budgetKey is one baseline bucket.
type budgetKey struct {
	root, owner, kind string
}

func (k budgetKey) String() string { return k.root + "\t" + k.owner + "\t" + k.kind }

// report compares every hot root's non-amortized buckets against the
// baseline.
func (st *state) report(baseline map[budgetKey]int) {
	for _, rec := range st.order {
		if !rec.hot {
			continue
		}
		res := st.resolve(rec)
		for _, k := range sortedSiteKeys(res.sites) {
			if k.amortized {
				continue
			}
			b := res.sites[k]
			budget := baseline[budgetKey{rec.owner, k.owner, k.kind}]
			if b.count <= budget {
				continue
			}
			st.pass.Reportf(b.pos,
				"hot path %s transitively allocates: %d %s site(s) in %s (budget %d)%s; hoist it, annotate it (// allocflow:amortized <reason> or // allocflow:cold <reason>), or accept it: unionlint -allocflow.update",
				rec.short, b.count, k.kind, k.owner, budget, viaSuffix(b.via))
		}
		// Unknown calls gate as one calls-unknown bucket per owner.
		type dynAgg struct {
			count int
			pos   token.Pos
			descs []string
			via   string
		}
		aggs := map[string]*dynAgg{}
		for _, k := range sortedDynKeys(res.dyns) {
			b := res.dyns[k]
			a := aggs[k.owner]
			if a == nil {
				a = &dynAgg{pos: b.pos, via: b.via}
				aggs[k.owner] = a
			}
			a.count += b.count
			if len(a.descs) < 3 {
				a.descs = append(a.descs, k.desc)
			}
		}
		var owners []string
		for o := range aggs {
			owners = append(owners, o)
		}
		sort.Strings(owners)
		for _, o := range owners {
			a := aggs[o]
			budget := baseline[budgetKey{rec.owner, o, KindCallsUnknown}]
			if a.count <= budget {
				continue
			}
			st.pass.Reportf(a.pos,
				"hot path %s reaches %d unbounded dynamic call(s) in %s (budget %d): %s%s; make the callee concrete, prune it (// allocflow:cold <reason>), or accept it: unionlint -allocflow.update",
				rec.short, a.count, o, budget, strings.Join(a.descs, "; "), viaSuffix(a.via))
		}
	}
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " " + via
}

func sortedSiteKeys(m map[bucketKey]*bucket) []bucketKey {
	keys := make([]bucketKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return !a.amortized && b.amortized
	})
	return keys
}

func sortedDynKeys(m map[dynKey]*bucket) []dynKey {
	keys := make([]dynKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		return a.desc < b.desc
	})
	return keys
}

// isHotpath reports whether fd's doc comment carries a hotpath: line.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, "hotpath:") {
			return true
		}
	}
	return false
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// fnDisplay renders a callee for via chains: last package element plus
// receiver-qualified name.
func fnDisplay(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		p := analysis.TrimPkgPath(fn.Pkg().Path())
		if i := strings.LastIndexByte(p, '/'); i >= 0 {
			p = p[i+1:]
		}
		name = p + "." + name
	}
	return name
}

// extendVia prepends one hop to a chain, capping its length.
func extendVia(fn *types.Func, sub string) string {
	hop := "via " + fnDisplay(fn)
	if sub == "" {
		return hop
	}
	if strings.Count(sub, "via ") >= 3 {
		return hop + " …"
	}
	return hop + " " + sub
}

func typeDisplay(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return analysis.TrimPkgPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	}
	return t.String()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isZeroSizeStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}

func isBasicKind(t types.Type, info types.BasicInfo) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&info != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isInterfaceOrNil reports whether arg is already interface-typed or
// the untyped nil (neither boxes).
func isInterfaceOrNil(info *types.Info, arg ast.Expr) bool {
	t := info.TypeOf(arg)
	if t == nil {
		return true // be lenient on weird exprs
	}
	if types.IsInterface(t) {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isSet(v string) bool { return v == "1" || v == "true" }

// baselinePath resolves the baseline file: the flag if set, else
// <module root>/lint/allocflow.baseline found by walking up from the
// package's first source file. Paths containing a testdata element
// never auto-discover (golden tests must not see the real baseline).
func (st *state) baselinePath(forWrite bool) string {
	if baselineFlag.Value != "" {
		return baselineFlag.Value
	}
	if len(st.pass.Files) == 0 {
		return ""
	}
	dir := filepath.Dir(st.pass.Fset.File(st.pass.Files[0].Pos()).Name())
	if strings.Contains(dir, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			p := filepath.Join(dir, "lint", "allocflow.baseline")
			if _, err := os.Stat(p); err == nil || forWrite {
				return p
			}
			return ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// loadBaseline parses "root\towner\tkind\tcount" lines.
func (st *state) loadBaseline() (map[budgetKey]int, error) {
	out := map[budgetKey]int{}
	path := st.baselinePath(false)
	if path == "" {
		return out, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("allocflow baseline: %w", err)
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("allocflow baseline %s:%d: want 4 tab-separated fields (root, owner, kind, count)", path, ln+1)
		}
		n, err := strconv.Atoi(parts[3])
		if err != nil {
			return nil, fmt.Errorf("allocflow baseline %s:%d: bad count: %v", path, ln+1, err)
		}
		out[budgetKey{parts[0], parts[1], parts[2]}] = n
	}
	return out, nil
}

// writeBaseline appends this package's hot-root buckets (the
// standalone driver truncates the file before the sweep). Amortized
// buckets are never baselined: their acceptance lives in the
// annotation, not here.
func (st *state) writeBaseline() error {
	path := st.baselinePath(true)
	if path == "" {
		return fmt.Errorf("allocflow: -allocflow.write needs -allocflow.baseline or a module lint/ directory")
	}
	counts := map[budgetKey]int{}
	var order []budgetKey
	add := func(k budgetKey, n int) {
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k] += n
	}
	for _, rec := range st.order {
		if !rec.hot {
			continue
		}
		res := st.resolve(rec)
		for _, k := range sortedSiteKeys(res.sites) {
			if k.amortized {
				continue
			}
			add(budgetKey{rec.owner, k.owner, k.kind}, res.sites[k].count)
		}
		for _, k := range sortedDynKeys(res.dyns) {
			add(budgetKey{rec.owner, k.owner, KindCallsUnknown}, res.dyns[k].count)
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Slice(order, func(i, j int) bool { return order[i].String() < order[j].String() })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, k := range order {
		if _, err := fmt.Fprintf(f, "%s\t%d\n", k.String(), counts[k]); err != nil {
			return err
		}
	}
	return nil
}
