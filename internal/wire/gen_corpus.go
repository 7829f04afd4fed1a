//go:build ignore

// gen_corpus regenerates the FuzzWireDecode seed corpus under
// testdata/fuzz/FuzzWireDecode. Run from this directory:
//
//	go run gen_corpus.go
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/wire"
)

func main() {
	namedPush, err := wire.EncodePushNamed("clicks", []byte("GT\x01\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00"))
	if err != nil {
		panic(err)
	}
	nested := wire.ExprQuery{HasSeed: true, Seed: 42,
		Expr: wire.Diff(wire.Intersect(wire.Union(wire.Leaf("ads"), wire.Leaf("buys")), wire.Leaf("clicks")), wire.Leaf(""))}
	nestedEnc, err := nested.Encode()
	if err != nil {
		panic(err)
	}
	// A left spine exactly MaxExprDepth deep — the deepest tree the
	// codec accepts; one more level and decode must refuse.
	deep := wire.Leaf("d")
	for i := 1; i < wire.MaxExprDepth; i++ {
		deep = wire.Union(deep, wire.Leaf("d"))
	}
	deepEnc, err := wire.ExprQuery{Expr: deep}.Encode()
	if err != nil {
		panic(err)
	}
	resultEnc, err := wire.EncodeExprResult(&wire.ExprResult{
		Op: wire.OpJaccard, Value: 0.25, ErrBound: 0.06,
		Left:  &wire.ExprResult{Op: wire.OpLeaf, Stream: "ads", Value: 100, ErrBound: 0.03},
		Right: &wire.ExprResult{Op: wire.OpLeaf, Stream: "", Value: 300, ErrBound: 0.03},
	})
	if err != nil {
		panic(err)
	}

	seeds := map[string][]byte{
		"push-sketch":          wire.EncodeFrame(wire.MsgPush, []byte("GT\x01\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00")),
		"push-named":           wire.EncodeFrame(wire.MsgPushNamed, namedPush),
		"query-expr-nested":    wire.EncodeFrame(wire.MsgQueryExpr, nestedEnc),
		"query-expr-max-depth": wire.EncodeFrame(wire.MsgQueryExpr, deepEnc),
		// A structurally valid frame whose expression payload is cut
		// short: the frame decodes, the typed payload must refuse.
		"query-expr-truncated": wire.EncodeFrame(wire.MsgQueryExpr, nestedEnc[:len(nestedEnc)-3]),
		"query-expr-result":    wire.EncodeFrame(wire.MsgQueryExprResult, resultEnc),
		"ack-seed-mismatch": wire.EncodeFrame(wire.MsgAck,
			wire.Ack{Code: wire.AckSeedMismatch, Detail: "sketch seed 7, coordinator requires 42"}.Encode()),
		"query-distinct": wire.EncodeFrame(wire.MsgQuery,
			wire.Query{Kind: wire.QueryDistinct, HasSeed: true, Seed: 42}.Encode()),
		"query-predicate": wire.EncodeFrame(wire.MsgQuery,
			wire.Query{Kind: wire.QueryCountWhere, HasSeed: true, Seed: 42, Pred: wire.PredMod, A: 10, B: 3}.Encode()),
		"two-frames": wire.AppendFrame(wire.EncodeFrame(wire.MsgStats, nil),
			wire.MsgQueryResult, wire.EncodeQueryResult(12345.5)),
		// A large frame, then a small one that a Reader reads into the
		// buffer the first one grew.
		"large-then-small": wire.AppendFrame(wire.EncodeFrame(wire.MsgPush, bytes.Repeat([]byte("SK"), 2048)),
			wire.MsgAck, wire.Ack{Code: wire.AckOK}.Encode()),
		"truncated-header": wire.EncodeFrame(wire.MsgStats, []byte("stats"))[:wire.HeaderSize-2],
		"bad-version":      {wire.Magic0, wire.Magic1, 99, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			panic(err)
		}
		fmt.Println("wrote", filepath.Join(dir, name))
	}
}
