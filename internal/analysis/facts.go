package analysis

// Modular facts, modeled on golang.org/x/tools/go/analysis: an analyzer
// attaches serializable facts to package-level objects while analyzing a
// package, and later analyses of importing packages read them back. Facts
// flow through both drivers — the standalone loader threads an in-process
// FactStore across packages in dependency order, and the unitchecker
// writes each package's facts to the `.vetx` file the go command caches
// and hands back (cfg.PackageVetx) when dependents are analyzed.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a datum an analyzer attaches to a package-level object. Concrete
// fact types must be pointers to gob-encodable structs and are declared in
// an Analyzer's FactTypes so both drivers can register them for
// serialization.
type Fact interface {
	AFact() // dummy marker method restricting implementations to intent
}

// factKey names one fact within a package: the exporting analyzer plus the
// stable object key (see objectKey).
type factKey struct {
	analyzer string
	object   string
}

// factSet is the facts attached to one package's objects.
type factSet map[factKey]Fact

// FactStore holds the decoded facts of every dependency package visible to
// the current analysis, keyed by import path.
type FactStore struct {
	byPkg map[string]factSet
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byPkg: map[string]factSet{}}
}

// set records a package's exported facts for later importers.
func (s *FactStore) set(pkgPath string, facts factSet) {
	if s == nil || len(facts) == 0 {
		return
	}
	s.byPkg[pkgPath] = facts
}

// get returns the fact for one object of one package, or nil.
func (s *FactStore) get(pkgPath string, key factKey) Fact {
	if s == nil {
		return nil
	}
	return s.byPkg[pkgPath][key]
}

// objectKey renders a package-level object as a stable string: "Name" for
// package-level functions, vars, and types; "(*T).M" / "T.M" for methods.
// Objects that are not package-level (locals, struct fields) have no key
// and cannot carry facts.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		sig, ok := f.Type().(*types.Signature)
		if !ok {
			return ""
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			ptr := ""
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				ptr = "(*"
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // interface or unnamed receiver: no facts
			}
			if ptr != "" {
				return ptr + named.Obj().Name() + ")." + f.Name()
			}
			return named.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	return ""
}

// ExportObjectFact attaches fact to obj, which must belong to the package
// being analyzed. The fact is visible to later ImportObjectFact calls in
// this package and, once serialized, to analyses of importing packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key := objectKey(obj)
	if key == "" {
		return
	}
	p.shared.exported[factKey{p.Analyzer.Name, key}] = fact
}

// ImportObjectFact copies the fact of this pass's analyzer attached to obj
// into *fact, reporting whether one was found. Facts about the current
// package's own objects (exported earlier in this run) and about imported
// packages' objects (read from the fact store) are both visible.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key := factKey{p.Analyzer.Name, objectKey(obj)}
	if key.object == "" {
		return false
	}
	var found Fact
	if obj.Pkg() == p.Pkg {
		found = p.shared.exported[key]
	} else {
		found = p.shared.store.get(obj.Pkg().Path(), key)
	}
	if found == nil {
		return false
	}
	dst := reflect.ValueOf(fact)
	src := reflect.ValueOf(found)
	if dst.Kind() != reflect.Pointer || dst.Type() != src.Type() {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// RegisterFactTypes registers every analyzer's fact types with gob so
// serialized fact files can round-trip interface values. Idempotent.
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// gobFact is the wire form of one exported fact.
type gobFact struct {
	Analyzer string
	Object   string
	Fact     Fact
}

// vetxHeader versions the fact-file format; the sha256 tool handshake
// (-V=full) already invalidates cached files across tool builds, so this
// only guards against foreign files.
const vetxHeader = "twvet-facts/v1"

// encodeFacts serializes a package's exported facts, sorted by key so the
// output is byte-stable (the go command caches vetx files by content).
func encodeFacts(facts factSet) ([]byte, error) {
	keys := make([]factKey, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].analyzer != keys[j].analyzer {
			return keys[i].analyzer < keys[j].analyzer
		}
		return keys[i].object < keys[j].object
	})
	gfs := make([]gobFact, 0, len(keys))
	for _, k := range keys {
		gfs = append(gfs, gobFact{Analyzer: k.analyzer, Object: k.object, Fact: facts[k]})
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(vetxHeader); err != nil {
		return nil, err
	}
	if err := enc.Encode(gfs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeFacts deserializes one package's fact file. It accepts only what
// encodeFacts writes: every record names its analyzer and object, carries
// a fact, and appears once.
func decodeFacts(data []byte) (factSet, error) {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var header string
	if err := dec.Decode(&header); err != nil {
		return nil, err
	}
	if header != vetxHeader {
		return nil, fmt.Errorf("fact file header %q, want %q", header, vetxHeader)
	}
	var gfs []gobFact
	if err := dec.Decode(&gfs); err != nil {
		return nil, err
	}
	facts := make(factSet, len(gfs))
	for _, gf := range gfs {
		key := factKey{gf.Analyzer, gf.Object}
		if key.analyzer == "" || key.object == "" {
			return nil, fmt.Errorf("fact file record has an empty key (analyzer %q, object %q)", key.analyzer, key.object)
		}
		if gf.Fact == nil {
			return nil, fmt.Errorf("fact file record %s/%s has no fact", key.analyzer, key.object)
		}
		if _, dup := facts[key]; dup {
			return nil, fmt.Errorf("fact file repeats record %s/%s", key.analyzer, key.object)
		}
		facts[key] = gf.Fact
	}
	return facts, nil
}
