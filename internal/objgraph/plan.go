package objgraph

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
)

// Compiled per-type encoding plans. Both Capture and Fingerprint walk the
// same canonical traversal, and both used to re-derive the same per-type
// facts on every node: the kind dispatch, the type string (reflect builds
// it on each call), struct field names (reflect.Type.Field allocates a
// fresh Index slice per call), and scalar sizes. A typePlan computes all
// of that once per reflect.Type and caches it in a package-level sync.Map.
// Plans also link the plans of their static child types (struct fields,
// pointer/slice/array elements, map values), so a traversal looks up the
// map once per root and follows pointers from there; only interfaces,
// whose dynamic type is known per value, go back to the map, through a
// one-entry cache of the last dynamic type seen.

// typePlan is the compiled encoding recipe for one reflect.Type.
type typePlan struct {
	// typ is the type the plan was compiled for.
	typ reflect.Type
	// kind is the reflect kind driving the encoder dispatch.
	kind reflect.Kind
	// typeStr is the interned Type.String() — the Node.Type of every node
	// of this type, shared instead of rebuilt per node.
	typeStr string
	// typeHash is strHash64(typeStr), mixed into fingerprints in place of
	// the string bytes.
	typeHash uint64
	// size is Type.Size(), used for scalar payload accounting.
	size int
	// fields holds the precomputed field traversal for structs.
	fields []fieldPlan
	// byteElem marks []byte-shaped slices (bulk payload fast path).
	byteElem bool
	// byteArray marks [N]byte-shaped arrays (large-leaf framing path).
	byteArray bool
	// elem is the plan of the element type of a pointer, slice or array,
	// or of the value type of a map.
	elem *typePlan
	// dyn caches, for an interface type, the plan of the dynamic type it
	// last held.
	dyn atomic.Pointer[typePlan]
}

// dynamic returns the plan of t, the dynamic type of a value held in an
// interface of this plan's type. Interface slots usually hold one type
// over and over, so the last type seen is checked before the map.
func (p *typePlan) dynamic(t reflect.Type) *typePlan {
	if d := p.dyn.Load(); d != nil && d.typ == t {
		return d
	}
	d := planFor(t)
	p.dyn.Store(d)
	return d
}

// fieldPlan is one struct field of a compiled plan.
type fieldPlan struct {
	// index is the field's positional index (Value.Field argument).
	index int
	// name is the interned field name — the edge label in Capture.
	name string
	// labelHash is strHash64(name), the edge label in Fingerprint.
	labelHash uint64
	// plan is the field type's plan.
	plan *typePlan
}

// typePlans caches *typePlan by reflect.Type. Types are process-immutable,
// so entries are never invalidated; the map only grows, bounded by the
// number of distinct types the program snapshots.
var typePlans sync.Map

// planFor returns the compiled plan for t, compiling and caching it (and
// every plan it links) on first sight. Safe for concurrent use: a racing
// first sight compiles twice and publishes one plan per type; the losing
// compile's linked plans are equivalent copies, so traversals that
// follow them encode identically.
func planFor(t reflect.Type) *typePlan {
	if p, ok := typePlans.Load(t); ok {
		return p.(*typePlan)
	}
	fresh := make(map[reflect.Type]*typePlan)
	compilePlan(t, fresh)
	// Publish only once every linked plan is complete, so no reader ever
	// follows a link into a half-built plan.
	for typ, p := range fresh {
		typePlans.LoadOrStore(typ, p)
	}
	p, _ := typePlans.Load(t)
	return p.(*typePlan)
}

// compilePlan derives the plan for t and, recursively, the plans of its
// static child types, recording new plans in fresh. A recursive type
// links back to its own plan through fresh.
func compilePlan(t reflect.Type, fresh map[reflect.Type]*typePlan) *typePlan {
	if p, ok := typePlans.Load(t); ok {
		return p.(*typePlan)
	}
	if p, ok := fresh[t]; ok {
		return p
	}
	p := &typePlan{
		typ:     t,
		kind:    t.Kind(),
		typeStr: t.String(),
		size:    int(t.Size()),
	}
	p.typeHash = strHash64(p.typeStr)
	fresh[t] = p
	switch p.kind {
	case reflect.Struct:
		p.fields = make([]fieldPlan, t.NumField())
		for i := range p.fields {
			f := t.Field(i)
			p.fields[i] = fieldPlan{index: i, name: f.Name, labelHash: strHash64(f.Name),
				plan: compilePlan(f.Type, fresh)}
		}
	case reflect.Slice:
		p.byteElem = t.Elem().Kind() == reflect.Uint8
		p.elem = compilePlan(t.Elem(), fresh)
	case reflect.Array:
		p.byteArray = t.Elem().Kind() == reflect.Uint8
		p.elem = compilePlan(t.Elem(), fresh)
	case reflect.Pointer, reflect.Map:
		p.elem = compilePlan(t.Elem(), fresh)
	}
	return p
}

// Interned edge labels. Capture used to build "arg1"/"[3]" strings on
// every root and element node; the common low indices are precomputed
// once and shared.

const nInternedLabels = 128

var (
	internedIndexLabels [nInternedLabels]string // "[0]", "[1]", ...
	internedArgLabels   [nInternedLabels]string // "recv", "arg1", ...
	internedIndexHashes [nInternedLabels]uint64
	internedArgHashes   [nInternedLabels]uint64
)

func init() {
	internedArgLabels[0] = "recv"
	for i := range internedIndexLabels {
		internedIndexLabels[i] = "[" + strconv.Itoa(i) + "]"
		internedIndexHashes[i] = strHash64(internedIndexLabels[i])
		if i > 0 {
			internedArgLabels[i] = "arg" + strconv.Itoa(i)
		}
		internedArgHashes[i] = strHash64(internedArgLabels[i])
	}
}

// indexLabel returns the "[i]" edge label, interned for small indices.
func indexLabel(i int) string {
	if i < nInternedLabels {
		return internedIndexLabels[i]
	}
	return "[" + strconv.Itoa(i) + "]"
}

// rootLabel returns the label of root i ("recv", then "argN"), interned
// for small indices.
func rootLabel(i int) string {
	if i < nInternedLabels {
		return internedArgLabels[i]
	}
	return "arg" + strconv.Itoa(i)
}

// indexLabelHash returns strHash64 of indexLabel(i) without building the
// string for interned indices.
func indexLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedIndexHashes[i]
	}
	return strHash64(indexLabel(i))
}

// rootLabelHash returns strHash64 of rootLabel(i).
func rootLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedArgHashes[i]
	}
	return strHash64(rootLabel(i))
}

// strHash64 hashes a label or type string to the 64-bit word mixed into
// fingerprints in its place. FNV-1a with a murmur-style finalizer: cheap
// at plan-compile time, and two distinct strings colliding only weakens
// the fingerprint toward its documented 2⁻¹²⁸-class collision caveat.
func strHash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return fmix64(h ^ uint64(len(s))<<56)
}

// fmix64 is the 64-bit avalanche finalizer (MurmurHash3 constants).
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
