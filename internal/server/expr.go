package server

import (
	"errors"
	"fmt"
	"math"
	"net"

	"repro/internal/sketch"
	"repro/internal/wire"
)

// Set-expression query evaluation: the recursive walk that turns a
// wire.QueryExpr over named streams into per-node estimates.
//
// Leaves resolve to merge groups (the query's seed/kind filters plus
// the leaf's stream name must narrow to exactly one group per leaf),
// and every interior node folds its children through the group kind's
// set capabilities:
//
//   - unions merge clones of the child sketches — every registered
//     kind can do this, it is the paper's original query;
//   - interior intersections and differences need sketch.SetCombiner
//     (the result must itself be a sketch for the parent node to
//     consume), which only kinds with the coordinated-sample closure
//     property implement;
//   - a root intersection/difference, and Jaccard (root-only by
//     grammar), need only the pairwise sketch.SetAlgebra scalars.
//
// Kinds without the needed capability refuse with AckUnsupported,
// exactly like Summer gating on the flat query path. Evaluation works
// on clones (envelope round trips), never on live group state, so a
// query can run concurrently with absorbs.

// errExprUnsupported marks a capability refusal: the group's kind
// cannot answer the requested operator at the requested position.
var errExprUnsupported = errors.New("server: set expression unsupported by sketch kind")

func (s *Server) serveQueryExpr(conn net.Conn, payload []byte) {
	eq, err := wire.DecodeExprQuery(payload)
	if err != nil {
		s.stats.rejected.Add(1)
		s.writeAck(conn, wire.Ack{Code: wire.AckCorrupt, Detail: err.Error()})
		return
	}
	res, qerr := s.AnswerExpr(eq)
	if qerr != nil {
		s.stats.rejected.Add(1)
		code := wire.AckError
		switch {
		case errors.Is(qerr, errExprUnsupported):
			code = wire.AckUnsupported
		case errors.Is(qerr, sketch.ErrMismatch):
			code = wire.AckSeedMismatch
		}
		s.writeAck(conn, wire.Ack{Code: code, Detail: qerr.Error()})
		return
	}
	enc, err := wire.EncodeExprResult(res)
	if err != nil {
		s.stats.rejected.Add(1)
		s.writeAck(conn, wire.Ack{Code: wire.AckError, Detail: err.Error()})
		return
	}
	s.stats.queries.Add(1)
	s.stats.exprQueries.Add(1)
	if err := wire.WriteFrame(conn, wire.MsgQueryExprResult, enc); err != nil {
		s.logf("unionstreamd: %s: writing expr result: %v", conn.RemoteAddr(), err)
	}
}

// AnswerExpr evaluates one set-expression query against the group
// table and returns the per-node result tree. It is the in-process
// entry the TCP path, embedders, and the cluster tests share.
func (s *Server) AnswerExpr(eq wire.ExprQuery) (*wire.ExprResult, error) {
	if eq.Expr == nil {
		return nil, fmt.Errorf("server: empty expression query")
	}
	if err := eq.Expr.Validate(); err != nil {
		return nil, err
	}
	res, _, err := s.evalExpr(eq, eq.Expr, false)
	return res, err
}

// evalExpr walks one node. needSketch is true when a parent will
// consume this node's result as a sketch — which forbids the
// scalar-only fallbacks.
func (s *Server) evalExpr(eq wire.ExprQuery, e *wire.QueryExpr, needSketch bool) (*wire.ExprResult, sketch.Sketch, error) {
	if e.Op == wire.OpLeaf {
		g, err := s.selectStreamGroup(e.Stream, eq)
		if err != nil {
			return nil, nil, err
		}
		sk, err := g.cloneSketch()
		if err != nil {
			return nil, nil, err
		}
		res := &wire.ExprResult{Op: wire.OpLeaf, Stream: e.Stream, Value: sk.Estimate(), ErrBound: relativeStdErr(sk)}
		return res, sk, nil
	}

	lres, lsk, err := s.evalExpr(eq, e.Left, true)
	if err != nil {
		return nil, nil, err
	}
	rres, rsk, err := s.evalExpr(eq, e.Right, true)
	if err != nil {
		return nil, nil, err
	}
	res := &wire.ExprResult{Op: e.Op, Left: lres, Right: rres}
	rse := relativeStdErr(lsk)

	switch e.Op {
	case wire.OpUnion:
		// The paper's query: merge a clone of the left child with the
		// right. Every kind merges, so unions nest freely.
		if err := lsk.Merge(rsk); err != nil {
			return nil, nil, err
		}
		res.Value, res.ErrBound = lsk.Estimate(), rse
		return res, lsk, nil

	case wire.OpIntersect, wire.OpDiff:
		if comb, ok := lsk.(sketch.SetCombiner); ok {
			// Closure path: the result is itself a coordinated sketch, so
			// this node can sit anywhere in the expression.
			var out sketch.Sketch
			if e.Op == wire.OpIntersect {
				out, err = comb.CombineIntersect(rsk)
			} else {
				out, err = comb.CombineDiff(rsk)
			}
			if err != nil {
				return nil, nil, err
			}
			res.Value = out.Estimate()
			res.ErrBound = derivedBound(rse, lres.Value+rres.Value, res.Value)
			return res, out, nil
		}
		if alg, ok := lsk.(sketch.SetAlgebra); ok && !needSketch {
			// Scalar-only path: legal only at the root, where nothing
			// downstream needs the result as a set.
			if e.Op == wire.OpIntersect {
				res.Value, err = alg.SetIntersect(rsk)
			} else {
				res.Value, err = alg.SetDiff(rsk)
			}
			if err != nil {
				return nil, nil, err
			}
			res.ErrBound = derivedBound(rse, lres.Value+rres.Value, res.Value)
			return res, nil, nil
		}
		if needSketch {
			return nil, nil, fmt.Errorf("%w: %q cannot nest %s under another operator (no sketch-valued set operations)",
				errExprUnsupported, sketchKindName(lsk), e.Op)
		}
		return nil, nil, fmt.Errorf("%w: %q has no set operations", errExprUnsupported, sketchKindName(lsk))

	case wire.OpJaccard:
		alg, ok := lsk.(sketch.SetAlgebra)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %q has no set operations", errExprUnsupported, sketchKindName(lsk))
		}
		res.Value, err = alg.SetJaccard(rsk)
		if err != nil {
			return nil, nil, err
		}
		// A ratio's relative error explodes as the ratio shrinks: the
		// intersection count backing the numerator is j·(sample size).
		res.ErrBound = derivedBound(rse, 1, res.Value)
		return res, nil, nil

	default:
		return nil, nil, fmt.Errorf("server: unknown expression operator %d", e.Op)
	}
}

// selectStreamGroup resolves one expression leaf: the group holding
// the named stream, subject to the query's seed/kind filters, which
// must narrow to exactly one. Like selectGroup, ambiguity errors name
// the candidates.
func (s *Server) selectStreamGroup(stream string, eq wire.ExprQuery) (*group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var match *group
	n := 0
	for _, g := range s.groups {
		if g.servesLeaf(stream, eq) {
			match = g
			n++
		}
	}
	switch {
	case n == 1:
		return match, nil
	case n == 0:
		name := stream
		if name == "" {
			name = "(default)"
		}
		return nil, fmt.Errorf("server: no group for stream %q (seed filter: %v, kind filter: %v); groups held: %s",
			name, eq.HasSeed, eq.HasKind, describeGroups(s.groupsLocked()))
	default:
		matched := make([]*group, 0, n)
		for _, g := range s.groups {
			if g.servesLeaf(stream, eq) {
				matched = append(matched, g)
			}
		}
		return nil, fmt.Errorf("server: stream %q matches %d groups: %s; narrow the query's seed/kind filters",
			stream, n, describeGroups(matched))
	}
}

// servesLeaf reports whether g holds stream and passes the query's
// seed/kind filters. It reads only fields fixed at creation.
func (g *group) servesLeaf(stream string, eq wire.ExprQuery) bool {
	return g.key.Stream == stream &&
		(!eq.HasSeed || g.seed == eq.Seed) &&
		(!eq.HasKind || g.key.Kind == sketch.Kind(eq.SketchKind))
}

// cloneSketch snapshots the group's merged sketch as an independent
// copy via an envelope round trip, so expression evaluation never
// mutates live group state. Only the encode holds the group's lock:
// the envelope is the query's own, so it opens after the unlock.
func (g *group) cloneSketch() (sketch.Sketch, error) {
	g.mu.Lock()
	env, err := sketch.Envelope(g.sk)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return sketch.Open(env)
}

// relativeStdErr reports the kind's configured relative standard
// error, or NaN for kinds without the Accuracy capability.
func relativeStdErr(sk sketch.Sketch) float64 {
	if acc, ok := sk.(sketch.Accuracy); ok {
		return acc.RelativeStdErr()
	}
	return math.NaN()
}

// derivedBound degrades a configured relative error by the observed
// selectivity: a result that is a fraction σ = val/base of the
// operands' combined mass is estimated from an effective coordinated
// sample σ times smaller, so the relative error grows as 1/√σ. base
// is a conservative stand-in for the operand union (the sum of the
// operand estimates). A zero-valued result has no effective sample at
// all and reports +Inf.
func derivedBound(rse, base, val float64) float64 {
	if math.IsNaN(rse) {
		return math.NaN()
	}
	if val <= 0 {
		return math.Inf(1)
	}
	if base < val {
		base = val
	}
	return rse * math.Sqrt(base/val)
}

// sketchKindName names a sketch's registered kind for error text.
func sketchKindName(sk sketch.Sketch) string {
	info, _ := sketch.Lookup(sk.Kind())
	return info.Name
}
