package driver

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"os"
	"reflect"
	"sort"
	"sync"

	"repro/internal/analysis"
)

// A FactStore accumulates the facts exported by analyzer passes and
// serves them back to later passes, keyed by (package, object, fact
// type). The vet front end builds a fresh store per compilation unit,
// seeded from the .vetx files of the unit's direct imports (ReadFile)
// and flushed to the unit's own .vetx (WriteFile). Every .vetx
// re-exports the facts it imported, so direct-import files carry the
// whole transitive closure — exactly the x/tools unitchecker
// contract — so a unit's store holds exactly the facts it may see.
//
// Facts are stored and shipped as gob; RegisterFactTypes must see
// every analyzer before any store I/O so the concrete types decode.
type FactStore struct {
	mu    sync.Mutex
	facts map[factKey]analysis.Fact
}

type factKey struct {
	pkg string // import path, test-variant suffix stripped
	obj string // object path; "" for package facts
	typ reflect.Type
}

// NewFactStore returns an empty store with the analyzers' fact types
// gob-registered.
func NewFactStore(analyzers []*analysis.Analyzer) *FactStore {
	RegisterFactTypes(analyzers)
	return &FactStore{facts: map[factKey]analysis.Fact{}}
}

// RegisterFactTypes registers every analyzer's FactTypes with gob.
// Safe to call repeatedly with the same types.
func RegisterFactTypes(analyzers []*analysis.Analyzer) {
	for _, a := range analyzers {
		for _, ft := range a.FactTypes {
			gob.Register(ft)
		}
	}
}

// set validates and records one fact.
func (s *FactStore) set(key factKey, fact analysis.Fact) error {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		return fmt.Errorf("fact %T is not a pointer to a struct", fact)
	}
	s.mu.Lock()
	s.facts[key] = fact
	s.mu.Unlock()
	return nil
}

// get copies the stored fact for key's (pkg, obj, type-of-dst) into
// dst, reporting whether one existed.
func (s *FactStore) get(pkg, obj string, dst analysis.Fact) bool {
	key := factKey{pkg, obj, reflect.TypeOf(dst)}
	s.mu.Lock()
	src, ok := s.facts[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	// Copy so the caller cannot mutate the stored fact in place.
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

// gobFact is the serialized form of one fact.
type gobFact struct {
	Pkg  string
	Obj  string
	Fact analysis.Fact
}

// Encode serializes every fact in the store.
func (s *FactStore) Encode() ([]byte, error) {
	s.mu.Lock()
	out := make([]gobFact, 0, len(s.facts))
	for k, f := range s.facts {
		out = append(out, gobFact{Pkg: k.pkg, Obj: k.obj, Fact: f})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return fmt.Sprintf("%T", a.Fact) < fmt.Sprintf("%T", b.Fact)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode merges serialized facts into the store.
func (s *FactStore) Decode(data []byte) error {
	var in []gobFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return err
	}
	for _, gf := range in {
		if gf.Fact == nil {
			continue
		}
		if err := s.set(factKey{gf.Pkg, gf.Obj, reflect.TypeOf(gf.Fact)}, gf.Fact); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the store's full contents to a .vetx-style file.
func (s *FactStore) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// ReadFile merges a .vetx-style file into the store. An empty file is
// a valid empty fact set.
func (s *FactStore) ReadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if err := s.Decode(data); err != nil {
		return fmt.Errorf("decoding facts from %s: %w", path, err)
	}
	return nil
}

// View binds the store to one pass: exports attach to pkg, and
// imports read every fact in the store.
func (s *FactStore) View(pkg *types.Package) analysis.FactContext {
	return &storeView{store: s, pkg: pkg}
}

type storeView struct {
	store *FactStore
	pkg   *types.Package
}

func (v *storeView) selfPath() string {
	return analysis.TrimPkgPath(v.pkg.Path())
}

func (v *storeView) ImportPackageFact(path string, fact analysis.Fact) bool {
	return v.store.get(analysis.TrimPkgPath(path), "", fact)
}

func (v *storeView) ExportPackageFact(fact analysis.Fact) {
	key := factKey{v.selfPath(), "", reflect.TypeOf(fact)}
	if err := v.store.set(key, fact); err != nil {
		panic(fmt.Sprintf("ExportPackageFact(%s): %v", key.pkg, err))
	}
}

func (v *storeView) ImportObjectFact(obj types.Object, fact analysis.Fact) bool {
	path, objPath, ok := v.keyFor(obj)
	return ok && v.store.get(path, objPath, fact)
}

func (v *storeView) ExportObjectFact(obj types.Object, fact analysis.Fact) {
	path, objPath, ok := v.keyFor(obj)
	if !ok {
		panic(fmt.Sprintf("ExportObjectFact: no object path for %v", obj))
	}
	if path != v.selfPath() {
		panic(fmt.Sprintf("ExportObjectFact: %v belongs to %s, not the package under analysis (%s)",
			obj, path, v.selfPath()))
	}
	if err := v.store.set(factKey{path, objPath, reflect.TypeOf(fact)}, fact); err != nil {
		panic(fmt.Sprintf("ExportObjectFact(%s.%s): %v", path, objPath, err))
	}
}

func (v *storeView) keyFor(obj types.Object) (pkgPath, objPath string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	objPath, ok = analysis.ObjectPath(obj)
	if !ok {
		return "", "", false
	}
	return analysis.TrimPkgPath(obj.Pkg().Path()), objPath, true
}

func (v *storeView) AllPackageFacts() []analysis.PackageFact {
	v.store.mu.Lock()
	var out []analysis.PackageFact
	for k, f := range v.store.facts {
		if k.obj == "" {
			out = append(out, analysis.PackageFact{Path: k.pkg, Fact: f})
		}
	}
	v.store.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}
