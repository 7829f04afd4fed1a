package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Named streams and set-expression queries (protocol minor version 2).
//
// The paper's coordinator merges everything compatible into one group
// and answers union queries; its successors (Cohen's coordinated-
// sample estimators, the MTS set-expression sketch) show the same
// coordinated samples answer a whole algebra. This file is the wire
// half of that upgrade: pushes may name the stream they belong to, so
// the coordinator can keep per-stream groups, and queries may carry a
// recursive set expression — Union | Intersect | Diff | Jaccard over
// stream-name leaves — answered with a result tree carrying per-node
// estimates and error bounds.

const (
	// MaxStreamName bounds a stream name's encoded length. Names are
	// group-key components, not documents.
	MaxStreamName = 255
	// MaxExprDepth bounds the QueryExpr tree height on decode (and the
	// recursive evaluator server-side): deep enough for any real
	// expression, shallow enough that a hostile frame cannot win a
	// stack-depth contest with the decoder.
	MaxExprDepth = 32
	// maxExprNodes bounds the total node count on decode, so a frame
	// cannot be wide instead of deep.
	maxExprNodes = 4096
)

// ValidStreamName reports whether s can travel as a stream name. The
// empty name is the default stream and is valid everywhere a name is.
func ValidStreamName(s string) error {
	if len(s) > MaxStreamName {
		return fmt.Errorf("%w: stream name %d bytes, limit %d", ErrFrame, len(s), MaxStreamName)
	}
	return nil
}

// EncodePushNamed builds a MsgPushNamed payload: uvarint name length,
// name bytes, then the sketch envelope verbatim. An empty stream name
// is legal and means the default stream — the same group a plain
// MsgPush of the envelope would reach.
func EncodePushNamed(stream string, envelope []byte) ([]byte, error) {
	if err := ValidStreamName(stream); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(stream)+len(envelope))
	b = binary.AppendUvarint(b, uint64(len(stream)))
	b = append(b, stream...)
	return append(b, envelope...), nil
}

// DecodePushNamed parses a MsgPushNamed payload into its stream name
// and sketch envelope. The envelope is a sub-slice of b, not a copy.
func DecodePushNamed(b []byte) (stream string, envelope []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxStreamName {
		return "", nil, fmt.Errorf("%w: bad stream name length", ErrFrame)
	}
	rest := b[k:]
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: stream name %d bytes, declared %d", ErrFrame, len(rest), n)
	}
	return string(rest[:n]), rest[n:], nil
}

// EncodePush returns the frame type and payload that push envelope to
// stream. The default stream ("") travels as a plain MsgPush carrying
// the envelope unchanged — the exact bytes a pre-stream site sends and
// a pre-stream log holds; any other stream as a MsgPushNamed.
func EncodePush(stream string, envelope []byte) (MsgType, []byte, error) {
	if stream == "" {
		return MsgPush, envelope, nil
	}
	payload, err := EncodePushNamed(stream, envelope)
	if err != nil {
		return 0, nil, err
	}
	return MsgPushNamed, payload, nil
}

// DecodePush parses the payload of a push frame of type t into its
// stream name and sketch envelope, inverting EncodePush: a MsgPush is
// the default stream's envelope verbatim, a MsgPushNamed goes through
// DecodePushNamed, and any other frame type is an ErrFrame.
func DecodePush(t MsgType, payload []byte) (stream string, envelope []byte, err error) {
	switch t {
	case MsgPush:
		return "", payload, nil
	case MsgPushNamed:
		return DecodePushNamed(payload)
	default:
		return "", nil, fmt.Errorf("%w: frame type %s is not a push", ErrFrame, t)
	}
}

// ExprOp is a QueryExpr node's operator.
type ExprOp uint8

const (
	// OpLeaf names one stream; the node's value is that stream's
	// distinct-count estimate.
	OpLeaf ExprOp = iota
	// OpUnion estimates |A ∪ B| — the paper's original query, now one
	// operator among four.
	OpUnion
	// OpIntersect estimates |A ∩ B|.
	OpIntersect
	// OpDiff estimates |A \ B|.
	OpDiff
	// OpJaccard estimates |A∩B| / |A∪B| ∈ [0, 1]. Its value is a
	// ratio, not a set, so it is only legal at the expression root.
	OpJaccard

	numExprOps
)

// String implements fmt.Stringer.
func (op ExprOp) String() string {
	switch op {
	case OpLeaf:
		return "leaf"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpDiff:
		return "diff"
	case OpJaccard:
		return "jaccard"
	default:
		return fmt.Sprintf("ExprOp(%d)", uint8(op))
	}
}

// QueryExpr is one node of a set-expression AST: a stream-name leaf,
// or a binary operator over two subtrees.
type QueryExpr struct {
	Op ExprOp
	// Stream is the leaf's stream name (OpLeaf only); "" names the
	// default stream.
	Stream string
	// Left and Right are the operands (operator nodes only).
	Left, Right *QueryExpr
}

// Leaf returns a leaf node for the named stream.
func Leaf(stream string) *QueryExpr { return &QueryExpr{Op: OpLeaf, Stream: stream} }

// Union returns the |l ∪ r| node.
func Union(l, r *QueryExpr) *QueryExpr { return &QueryExpr{Op: OpUnion, Left: l, Right: r} }

// Intersect returns the |l ∩ r| node.
func Intersect(l, r *QueryExpr) *QueryExpr { return &QueryExpr{Op: OpIntersect, Left: l, Right: r} }

// Diff returns the |l \ r| node.
func Diff(l, r *QueryExpr) *QueryExpr { return &QueryExpr{Op: OpDiff, Left: l, Right: r} }

// Jaccard returns the Jaccard-similarity node (root only).
func Jaccard(l, r *QueryExpr) *QueryExpr { return &QueryExpr{Op: OpJaccard, Left: l, Right: r} }

// String renders the expression in the grammar cmd/unionpush parses:
// `|` union, `&` intersect, `-` diff, `~` Jaccard, parenthesized
// subtrees, bare words or "quoted" strings as stream names.
func (e *QueryExpr) String() string {
	if e == nil {
		return "<nil>"
	}
	if e.Op == OpLeaf {
		if e.Stream == "" {
			return `""`
		}
		return e.Stream
	}
	var op string
	switch e.Op {
	case OpUnion:
		op = "|"
	case OpIntersect:
		op = "&"
	case OpDiff:
		op = "-"
	case OpJaccard:
		op = "~"
	default:
		op = e.Op.String()
	}
	return fmt.Sprintf("(%s %s %s)", e.Left, op, e.Right)
}

// Validate checks the tree's structural contract: known operators,
// legal stream names, leaves with no children and operators with two,
// depth within MaxExprDepth, and Jaccard only at the root. Decoding
// enforces the same rules; Validate lets a client refuse a bad tree
// before spending a round trip on it.
func (e *QueryExpr) Validate() error {
	_, err := e.validate(1, true)
	return err
}

func (e *QueryExpr) validate(depth int, root bool) (nodes int, err error) {
	if e == nil {
		return 0, fmt.Errorf("%w: nil expression node", ErrFrame)
	}
	if depth > MaxExprDepth {
		return 0, fmt.Errorf("%w: expression deeper than %d", ErrFrame, MaxExprDepth)
	}
	switch e.Op {
	case OpLeaf:
		if e.Left != nil || e.Right != nil {
			return 0, fmt.Errorf("%w: leaf node with children", ErrFrame)
		}
		if err := ValidStreamName(e.Stream); err != nil {
			return 0, err
		}
		return 1, nil
	case OpUnion, OpIntersect, OpDiff, OpJaccard:
		if e.Op == OpJaccard && !root {
			// A Jaccard value is a ratio in [0,1], not a set — it has no
			// meaning as an operand of a set operator.
			return 0, fmt.Errorf("%w: jaccard below the expression root", ErrFrame)
		}
		if e.Stream != "" {
			return 0, fmt.Errorf("%w: operator node with a stream name", ErrFrame)
		}
		ln, err := e.Left.validate(depth+1, false)
		if err != nil {
			return 0, err
		}
		rn, err := e.Right.validate(depth+1, false)
		if err != nil {
			return 0, err
		}
		return ln + rn + 1, nil
	default:
		return 0, fmt.Errorf("%w: unknown expression operator %d", ErrFrame, uint8(e.Op))
	}
}

// Leaves appends the expression's stream names, left to right
// (duplicates included), and returns the extended slice.
func (e *QueryExpr) Leaves(dst []string) []string {
	if e == nil {
		return dst
	}
	if e.Op == OpLeaf {
		return append(dst, e.Stream)
	}
	return e.Right.Leaves(e.Left.Leaves(dst))
}

// appendExpr serializes the node preorder: op byte, then for a leaf
// the uvarint-prefixed stream name, for an operator the two subtrees.
func (e *QueryExpr) appendExpr(b []byte) []byte {
	b = append(b, byte(e.Op))
	if e.Op == OpLeaf {
		b = binary.AppendUvarint(b, uint64(len(e.Stream)))
		return append(b, e.Stream...)
	}
	return e.Right.appendExpr(e.Left.appendExpr(b))
}

// decodeExpr is the recursive half of DecodeQueryExpr; nodes is the
// running node budget.
func decodeExpr(b []byte, depth int, nodes *int) (*QueryExpr, []byte, error) {
	if depth > MaxExprDepth {
		return nil, nil, fmt.Errorf("%w: expression deeper than %d", ErrFrame, MaxExprDepth)
	}
	if *nodes++; *nodes > maxExprNodes {
		return nil, nil, fmt.Errorf("%w: expression wider than %d nodes", ErrFrame, maxExprNodes)
	}
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: truncated expression", ErrFrame)
	}
	op := ExprOp(b[0])
	b = b[1:]
	switch op {
	case OpLeaf:
		n, k := binary.Uvarint(b)
		if k <= 0 || n > MaxStreamName {
			return nil, nil, fmt.Errorf("%w: bad stream name length", ErrFrame)
		}
		b = b[k:]
		if uint64(len(b)) < n {
			return nil, nil, fmt.Errorf("%w: truncated stream name", ErrFrame)
		}
		return &QueryExpr{Op: OpLeaf, Stream: string(b[:n])}, b[n:], nil
	case OpUnion, OpIntersect, OpDiff, OpJaccard:
		if op == OpJaccard && depth > 1 {
			return nil, nil, fmt.Errorf("%w: jaccard below the expression root", ErrFrame)
		}
		left, rest, err := decodeExpr(b, depth+1, nodes)
		if err != nil {
			return nil, nil, err
		}
		right, rest, err := decodeExpr(rest, depth+1, nodes)
		if err != nil {
			return nil, nil, err
		}
		return &QueryExpr{Op: op, Left: left, Right: right}, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown expression operator %d", ErrFrame, uint8(op))
	}
}

// ExprQuery flag bits (byte 0 of the encoding); they mirror Query's.
const (
	exprFlagSeed = 1 << 0
	exprFlagKind = 1 << 1
)

// ExprQuery is the payload of a MsgQueryExpr frame: the expression
// plus the same group filters a flat Query carries. Every leaf
// resolves within one (kind, config digest) family — set algebra is
// only defined between coordinated siblings — so the filters select
// the family when the coordinator holds several.
type ExprQuery struct {
	// HasSeed/Seed filter candidate groups by coordination seed.
	HasSeed bool
	Seed    uint64
	// HasKind/SketchKind filter candidate groups by sketch kind tag.
	HasKind    bool
	SketchKind uint8
	// Expr is the expression tree; it must Validate.
	Expr *QueryExpr
}

// Encode serializes the query: flags, seed, kind (each canonical zero
// when absent), then the expression preorder.
func (q ExprQuery) Encode() ([]byte, error) {
	if err := q.Expr.Validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 16)
	var flags byte
	var seed uint64
	if q.HasSeed {
		flags |= exprFlagSeed
		seed = q.Seed
	}
	if q.HasKind {
		flags |= exprFlagKind
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, seed)
	var kind byte
	if q.HasKind {
		kind = q.SketchKind
	}
	b = append(b, kind)
	return q.Expr.appendExpr(b), nil
}

// DecodeExprQuery parses a MsgQueryExpr payload, enforcing the
// expression depth/width bounds and the canonical-zero rule for
// absent fields. The whole payload must be consumed.
func DecodeExprQuery(b []byte) (ExprQuery, error) {
	if len(b) < 10 {
		return ExprQuery{}, fmt.Errorf("%w: expr query payload %d bytes", ErrFrame, len(b))
	}
	q := ExprQuery{
		HasSeed:    b[0]&exprFlagSeed != 0,
		HasKind:    b[0]&exprFlagKind != 0,
		Seed:       binary.LittleEndian.Uint64(b[1:9]),
		SketchKind: b[9],
	}
	if b[0]&^(exprFlagSeed|exprFlagKind) != 0 {
		return ExprQuery{}, fmt.Errorf("%w: unknown expr query flags %#x", ErrFrame, b[0])
	}
	if !q.HasSeed && q.Seed != 0 {
		return ExprQuery{}, fmt.Errorf("%w: seed %d without the seed flag", ErrFrame, q.Seed)
	}
	if !q.HasKind && q.SketchKind != 0 {
		return ExprQuery{}, fmt.Errorf("%w: sketch kind %d without the kind flag", ErrFrame, b[9])
	}
	nodes := 0
	expr, rest, err := decodeExpr(b[10:], 1, &nodes)
	if err != nil {
		return ExprQuery{}, err
	}
	if len(rest) != 0 {
		return ExprQuery{}, fmt.Errorf("%w: %d trailing bytes after expression", ErrFrame, len(rest))
	}
	q.Expr = expr
	return q, nil
}

// ExprResult is one node of a MsgQueryExprResult payload: the query
// tree mirrored back with a per-node estimate and error bound, so a
// caller can see not just the final answer but how each intermediate
// set was sized and how trustworthy each level is.
type ExprResult struct {
	Op ExprOp
	// Stream echoes the leaf's stream name.
	Stream string
	// Value is the node's estimate: a cardinality for leaf/set nodes,
	// a ratio in [0, 1] for a Jaccard root.
	Value float64
	// ErrBound is the estimator's relative standard error bound for
	// this node's value, when the backing kind reports one (0 means
	// unknown). For intersections and differences the bound degrades
	// with selectivity — a small result carved out of large inputs is
	// estimated from proportionally few coordinated samples.
	ErrBound float64
	// Left and Right mirror the query's operand subtrees.
	Left, Right *ExprResult
}

// appendResult serializes the node preorder: op, leaf name, value and
// bound as float64 bits, then the subtrees.
func (r *ExprResult) appendResult(b []byte) []byte {
	b = append(b, byte(r.Op))
	if r.Op == OpLeaf {
		b = binary.AppendUvarint(b, uint64(len(r.Stream)))
		b = append(b, r.Stream...)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Value))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.ErrBound))
	if r.Op == OpLeaf {
		return b
	}
	return r.Right.appendResult(r.Left.appendResult(b))
}

// EncodeExprResult serializes a result tree for a MsgQueryExprResult
// frame.
func EncodeExprResult(r *ExprResult) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: nil expr result", ErrFrame)
	}
	return r.appendResult(make([]byte, 0, 64)), nil
}

// DecodeExprResult parses a MsgQueryExprResult payload; the whole
// payload must be consumed.
func DecodeExprResult(b []byte) (*ExprResult, error) {
	nodes := 0
	r, rest, err := decodeResult(b, 1, &nodes)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after expr result", ErrFrame, len(rest))
	}
	return r, nil
}

func decodeResult(b []byte, depth int, nodes *int) (*ExprResult, []byte, error) {
	if depth > MaxExprDepth {
		return nil, nil, fmt.Errorf("%w: expr result deeper than %d", ErrFrame, MaxExprDepth)
	}
	if *nodes++; *nodes > maxExprNodes {
		return nil, nil, fmt.Errorf("%w: expr result wider than %d nodes", ErrFrame, maxExprNodes)
	}
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: truncated expr result", ErrFrame)
	}
	op := ExprOp(b[0])
	if op >= numExprOps {
		return nil, nil, fmt.Errorf("%w: unknown expression operator %d", ErrFrame, b[0])
	}
	if op == OpJaccard && depth > 1 {
		return nil, nil, fmt.Errorf("%w: jaccard below the expr result root", ErrFrame)
	}
	b = b[1:]
	r := &ExprResult{Op: op}
	if op == OpLeaf {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > MaxStreamName {
			return nil, nil, fmt.Errorf("%w: bad stream name length", ErrFrame)
		}
		b = b[k:]
		if uint64(len(b)) < n {
			return nil, nil, fmt.Errorf("%w: truncated stream name", ErrFrame)
		}
		r.Stream = string(b[:n])
		b = b[n:]
	}
	if len(b) < 16 {
		return nil, nil, fmt.Errorf("%w: truncated expr result values", ErrFrame)
	}
	r.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
	r.ErrBound = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
	b = b[16:]
	if op == OpLeaf {
		return r, b, nil
	}
	var err error
	if r.Left, b, err = decodeResult(b, depth+1, nodes); err != nil {
		return nil, nil, err
	}
	if r.Right, b, err = decodeResult(b, depth+1, nodes); err != nil {
		return nil, nil, err
	}
	return r, b, nil
}
