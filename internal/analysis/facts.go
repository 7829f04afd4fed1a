package analysis

import (
	"go/types"
	"strings"
)

// A Fact is a typed datum an analyzer attaches to a package or to a
// package-level object, visible to later analysis of any package that
// imports the fact's package (directly or transitively). Facts are how
// unionlint enforces whole-program invariants one package at a time.
// lockorder exports each function's lock summary as an object fact
// and each package's lock-ordering edges as a package fact, so the
// package that closes a cross-package ordering cycle sees every edge
// of it without re-analyzing the packages that added them. mergepure
// marks impure functions with an object fact, so a Merge that calls
// one from another package is still caught.
//
// Facts must be pointers to gob-serializable structs (drivers move
// them between compilation units as gob streams, mirroring the go
// vet facts protocol), must not contain token.Pos values (positions
// do not survive re-loading), and must be declared in the analyzer's
// FactTypes so drivers can register their concrete types for decoding.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// A PackageFact pairs a fact with the import path of the package it
// describes.
type PackageFact struct {
	Path string
	Fact Fact
}

// FactContext is the driver-provided view of the fact store for one
// pass: facts exported here become visible to passes over importing
// packages, and facts imported here come from the transitive imports
// of the package under analysis.
type FactContext interface {
	// ImportPackageFact copies the fact of fact's concrete type
	// attached to the package with the given import path into fact,
	// reporting whether one existed.
	ImportPackageFact(path string, fact Fact) bool
	// ExportPackageFact attaches fact to the package under analysis,
	// replacing any existing fact of the same concrete type.
	ExportPackageFact(fact Fact)
	// ImportObjectFact copies the fact attached to obj into fact,
	// reporting whether one existed. obj may belong to any visible
	// package, including the one under analysis.
	ImportObjectFact(obj types.Object, fact Fact) bool
	// ExportObjectFact attaches fact to obj, which must belong to the
	// package under analysis and have a derivable ObjectPath.
	ExportObjectFact(obj types.Object, fact Fact)
	// AllPackageFacts returns every visible package fact, in
	// deterministic order.
	AllPackageFacts() []PackageFact
}

// ObjectPath encodes a stable, serializable name for a package-level
// object: the key its object facts are stored under, so a pass over an
// importing package finds them from its own copy of the object. It is
// a deliberately small subset of x/tools' objectpath:
//
//   - a package-level const, var, func, or type is its name ("Register");
//   - a method of a package-level named type is "Type.Method"
//     ("Sampler.Merge"), regardless of pointer receivers.
//
// Objects outside those shapes (locals, struct fields, interface
// methods, instantiated generics) are not supported and report false —
// the unionlint fact-driven analyzers only need the two shapes above.
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return "", false
		}
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		return named.Obj().Name() + "." + fn.Name(), true
	}
	return "", false
}

// TrimPkgPath strips the test-variant suffix ("pkg [pkg.test]") from a
// package path so facts exported from a test compilation land under
// the same key as the plain package.
func TrimPkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}
