package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPushNamedRoundTrip(t *testing.T) {
	env := []byte("GT\x01payload bytes")
	for _, stream := range []string{"", "clicks", "a b c", strings.Repeat("x", MaxStreamName)} {
		enc, err := EncodePushNamed(stream, env)
		if err != nil {
			t.Fatalf("encode %q: %v", stream, err)
		}
		gotStream, gotEnv, err := DecodePushNamed(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", stream, err)
		}
		if gotStream != stream || !bytes.Equal(gotEnv, env) {
			t.Fatalf("round trip %q: got %q / %d bytes", stream, gotStream, len(gotEnv))
		}

		// EncodePush picks the frame: the default stream travels as a
		// plain MsgPush carrying the envelope unchanged.
		typ, payload, err := EncodePush(stream, env)
		if err != nil {
			t.Fatalf("EncodePush %q: %v", stream, err)
		}
		switch {
		case stream == "" && (typ != MsgPush || !bytes.Equal(payload, env)):
			t.Fatalf("EncodePush of the default stream: %s with %d bytes, want the envelope as a MsgPush", typ, len(payload))
		case stream != "" && (typ != MsgPushNamed || !bytes.Equal(payload, enc)):
			t.Fatalf("EncodePush %q: %s, want the EncodePushNamed payload as a MsgPushNamed", stream, typ)
		}
		gotStream, gotEnv, err = DecodePush(typ, payload)
		if err != nil {
			t.Fatalf("DecodePush %q: %v", stream, err)
		}
		if gotStream != stream || !bytes.Equal(gotEnv, env) {
			t.Fatalf("EncodePush/DecodePush round trip %q: got %q / %d bytes", stream, gotStream, len(gotEnv))
		}
	}
	if _, err := EncodePushNamed(strings.Repeat("x", MaxStreamName+1), env); err == nil {
		t.Fatal("over-long stream name encoded")
	}
	if _, _, err := EncodePush(strings.Repeat("x", MaxStreamName+1), env); err == nil {
		t.Fatal("over-long stream name encoded by EncodePush")
	}
	for _, typ := range []MsgType{MsgAck, MsgQuery, MsgQueryExpr, MsgStats} {
		if _, _, err := DecodePush(typ, env); !errors.Is(err, ErrFrame) {
			t.Fatalf("DecodePush of a %s frame: err = %v, want ErrFrame", typ, err)
		}
	}
	if _, _, err := DecodePushNamed(nil); err == nil {
		t.Fatal("empty named push decoded")
	}
	enc, _ := EncodePushNamed("clicks", env)
	if _, _, err := DecodePushNamed(enc[:3]); err == nil {
		t.Fatal("truncated named push decoded")
	}
}

func TestExprQueryRoundTrip(t *testing.T) {
	exprs := []*QueryExpr{
		Leaf(""),
		Leaf("ads"),
		Union(Leaf("a"), Leaf("b")),
		Diff(Intersect(Union(Leaf("ads"), Leaf("buys")), Leaf("clicks")), Leaf("")),
		Jaccard(Union(Leaf("a"), Leaf("b")), Intersect(Leaf("c"), Leaf("d"))),
	}
	queries := []ExprQuery{
		{},
		{HasSeed: true, Seed: 42},
		{HasKind: true, SketchKind: 3},
		{HasSeed: true, Seed: math.MaxUint64, HasKind: true, SketchKind: 255},
		{HasSeed: false, Seed: 7},
		{HasKind: false, SketchKind: 3},
	}
	for _, e := range exprs {
		for _, q := range queries {
			q.Expr = e
			enc, err := q.Encode()
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			got, err := DecodeExprQuery(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", e, err)
			}
			re, err := got.Encode()
			if err != nil || !bytes.Equal(re, enc) {
				t.Fatalf("%s: re-encode differs (err=%v)", e, err)
			}
			// A field whose flag is unset travels as zero.
			want := q
			if !want.HasSeed {
				want.Seed = 0
			}
			if !want.HasKind {
				want.SketchKind = 0
			}
			if got.HasSeed != want.HasSeed || got.Seed != want.Seed || got.HasKind != want.HasKind || got.SketchKind != want.SketchKind {
				t.Fatalf("%s: filters drifted: %+v vs %+v", e, got, want)
			}
			if got.Expr.String() != e.String() {
				t.Fatalf("tree drifted: %s vs %s", got.Expr, e)
			}
		}
	}
}

func TestExprValidate(t *testing.T) {
	deep := Leaf("d")
	for i := 1; i < MaxExprDepth; i++ {
		deep = Union(deep, Leaf("d"))
	}
	if err := deep.Validate(); err != nil {
		t.Fatalf("depth-%d spine refused: %v", MaxExprDepth, err)
	}
	if err := Union(deep, Leaf("d")).Validate(); err == nil {
		t.Fatalf("depth-%d spine accepted", MaxExprDepth+1)
	}
	if _, err := (ExprQuery{Expr: Union(deep, Leaf("d"))}).Encode(); err == nil {
		t.Fatal("over-deep expression encoded")
	}

	bad := []*QueryExpr{
		nil,
		{Op: OpLeaf, Left: Leaf("a")},  // leaf with a child
		{Op: OpUnion, Left: Leaf("a")}, // operator missing a child
		{Op: ExprOp(99), Left: Leaf("a"), Right: Leaf("b")},
		Union(Jaccard(Leaf("a"), Leaf("b")), Leaf("c")), // jaccard below root
		Leaf(strings.Repeat("s", MaxStreamName+1)),
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: invalid expression validated: %s", i, e)
		}
	}
	// Jaccard at the root is the one legal position.
	if err := Jaccard(Leaf("a"), Leaf("b")).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExprQueryDecodeRejects(t *testing.T) {
	enc, err := ExprQuery{Expr: Union(Leaf("a"), Leaf("b"))}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeExprQuery(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeExprQuery(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	if !errors.Is(func() error { _, err := DecodeExprQuery(nil); return err }(), ErrFrame) {
		t.Fatal("decode errors are not ErrFrame-typed")
	}
}

func TestExprLeavesAndString(t *testing.T) {
	e := Diff(Intersect(Union(Leaf("ads"), Leaf("buys")), Leaf("clicks")), Leaf(""))
	if got, want := e.String(), `(((ads | buys) & clicks) - "")`; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	leaves := e.Leaves(nil)
	if len(leaves) != 4 || leaves[0] != "ads" || leaves[1] != "buys" || leaves[2] != "clicks" || leaves[3] != "" {
		t.Fatalf("Leaves = %q", leaves)
	}
	// dst is appended to, not replaced.
	if got := e.Leaves([]string{"x"}); len(got) != 5 || got[0] != "x" {
		t.Fatalf("Leaves with prefix = %q", got)
	}
}

func TestExprResultRoundTrip(t *testing.T) {
	res := &ExprResult{
		Op: OpJaccard, Value: 0.25, ErrBound: 0.06,
		Left: &ExprResult{Op: OpUnion, Value: 400, ErrBound: 0.03,
			Left:  &ExprResult{Op: OpLeaf, Stream: "ads", Value: 100, ErrBound: 0.03},
			Right: &ExprResult{Op: OpLeaf, Stream: "", Value: 300, ErrBound: math.Inf(1)},
		},
		Right: &ExprResult{Op: OpLeaf, Stream: "buys", Value: 200, ErrBound: math.NaN()},
	}
	enc, err := EncodeExprResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeExprResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := EncodeExprResult(got)
	if err != nil || !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs (err=%v)", err)
	}
	if got.Left.Left.Stream != "ads" || got.Left.Right.Value != 300 {
		t.Fatalf("tree drifted: %+v", got)
	}
	if !math.IsInf(got.Left.Right.ErrBound, 1) || !math.IsNaN(got.Right.ErrBound) {
		t.Fatalf("non-finite bounds drifted: %v, %v", got.Left.Right.ErrBound, got.Right.ErrBound)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeExprResult(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}
