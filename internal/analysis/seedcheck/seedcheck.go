// Package seedcheck forbids unseeded and clock-seeded randomness in
// the packages whose determinism the Gibbons–Tirthapura scheme depends
// on.
//
// Coordinated sampling works only because every site evaluates the
// *same* seeded hash family: two sketches merge into a sample of the
// union precisely when their level hashes agree on every label. A
// stray rand.Seed, a global math/rand draw (process-seeded, shared,
// order-dependent), or a time.Now().UnixNano() seed silently breaks
// that coordination — the merged estimate stays plausible-looking and
// just stops being correct. This analyzer makes such code a CI
// failure inside the sketch/hashing/estimator packages:
//
//   - calls to (math/rand).Seed or (math/rand/v2) top-level generator
//     functions (Intn, Float64, Shuffle, ... — anything drawing from
//     the implicit global source),
//   - any time.Now().UnixNano() expression (the canonical
//     clock-seeding idiom).
//
// Constructing an explicitly seeded generator (rand.New,
// rand.NewSource, rand.NewPCG, ...) is allowed: randomness must flow
// from a seed the caller controls. Deliberate exceptions (e.g. retry
// jitter in internal/client, which never touches sketch state) carry
// an `unionlint:allow seedcheck <reason>` annotation.
package seedcheck

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// scope matches the packages in which nondeterminism is a
// correctness bug: the sampler core, hash families, baseline sketches,
// the trial harness, the window extension, and the site client.
var scope = regexp.MustCompile(`(^|/)internal/(core|hashing|sketch|estimate|window|client)(/|$)`)

// Analyzer is the seedcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "seedcheck",
	Doc:  "forbid unseeded or clock-seeded randomness in coordinated-sampling packages",
	Run:  run,
}

// globalRandFuncs are the math/rand (v1 and v2) top-level functions
// that draw from the package-global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "N": true,
}

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.PkgPath()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if p := pkgPathOf(pass, sel.X); p == "math/rand" || p == "math/rand/v2" {
			name := sel.Sel.Name
			switch {
			case name == "Seed":
				pass.Reportf(sel.Pos(),
					"rand.Seed reseeds the process-global generator; coordinated sites must derive all randomness from an explicit shared seed (use rand.New(rand.NewSource(seed)) or hashing.SplitMix64)")
			case globalRandFuncs[name]:
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the global math/rand source, which is process-seeded and order-dependent; use an explicitly seeded *rand.Rand (or hashing.SplitMix64/Xoshiro256) so sites stay coordinated", name)
			}
		}
		if sel.Sel.Name == "UnixNano" {
			if call, ok := sel.X.(*ast.CallExpr); ok {
				if inner, ok := call.Fun.(*ast.SelectorExpr); ok &&
					inner.Sel.Name == "Now" && pkgPathOf(pass, inner.X) == "time" {
					pass.Reportf(sel.Pos(),
						"time.Now().UnixNano() is clock-derived randomness; a sketch or hash seeded from it cannot be coordinated across sites — thread an explicit seed instead")
				}
			}
		}
		return true
	})
	return nil
}

// pkgPathOf returns the import path if e is an identifier naming an
// imported package, else "".
func pkgPathOf(pass *analysis.Pass, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
