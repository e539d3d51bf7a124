package snapshot

import (
	"hash"
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
)

// Registry is the host-object re-link table: every object reachable from a
// realm's globals and its intrinsic table before the prelude runs —
// builtins, prototypes, the Stopify runtime's natives and stack arrays —
// indexed by a deterministic traversal path. Host objects cross the serialization boundary by name:
// the encoder writes the ordinal, the decoder re-links the ordinal to the
// same-path object in the destination realm. Guest mutations *of* host
// objects (a monkey-patched builtin, a property added to Object.prototype)
// are captured separately, as deltas against a pristine twin realm (see
// encode.go), so the registry itself never needs to copy initial state.
//
// The traversal is deterministic because everything it consults is:
// global names sorted, then the intrinsics in table order (each under its
// name after a '%', which no global path starts with), own properties in
// shape insertion order, elements in index order, prototype last. Both sides build their registry at the
// same realm-construction point (after the runtime installs its globals,
// before the prelude executes), so ordinals agree; a fingerprint in the
// blob turns any drift into a loud decode error.
//
// Only the pristine twin, and a realm whose host graph differs from it,
// walk. Every other realm fills its column from the twin's (see
// HostRegistry), so it pays for no path bytes and no hashing, and for the
// object → ordinal map only when it is first asked for a Sum or an ordinal.
type Registry struct {
	objs []*interp.Object
	sum  uint64

	ordOnce sync.Once
	byObj   map[*interp.Object]int
}

// NewRegistry walks the realm's pre-prelude host graph. Call it right
// after rt.New (and any host-native installation that must survive
// snapshots), before the prelude runs.
func NewRegistry(in *interp.Interp) *Registry {
	w := registryWalk{r: &Registry{byObj: make(map[*interp.Object]int)}, h: fnv.New64a()}
	root := in.Global
	for _, name := range root.GlobalNames() {
		v, _ := root.Lookup(name)
		w.path = append(w.path[:0], name...)
		w.visit(v)
	}
	for k := range ast.NumIntrinsics {
		v, _ := in.Intrinsic(k)
		w.path = append(append(w.path[:0], '%'), ast.IntrinsicNames[k]...)
		w.visit(v)
	}
	w.r.sum = w.h.Sum64()
	return w.r
}

// registryWalk is one traversal's state. The path of the object being
// visited lives in one buffer that grows and shrinks with the descent, and
// the fingerprint — FNV-64a over each registered object's path and a NUL,
// in registration order — is fed as objects are registered instead of from
// a kept list of paths.
type registryWalk struct {
	r    *Registry
	path []byte
	h    hash.Hash64
}

var pathEnd = []byte{0}

// visit registers the object v holds, if it is one not yet seen, under the
// path in w.path, then descends. It returns with w.path as it found it.
func (w *registryWalk) visit(v interp.Value) {
	o := v.Obj()
	if o == nil {
		return
	}
	r := w.r
	if _, ok := r.byObj[o]; ok {
		return
	}
	r.byObj[o] = len(r.objs)
	r.objs = append(r.objs, o)
	w.h.Write(w.path)
	w.h.Write(pathEnd)

	n := len(w.path)
	for j := range o.OwnPropCount() {
		key, p := o.OwnPropAt(j)
		w.path = append(append(w.path[:n], '.'), key...)
		k := len(w.path)
		if g := p.Getter(); g != nil {
			w.path = append(w.path, ":get"...)
			w.visit(interp.ObjectValue(g))
		}
		if s := p.Setter(); s != nil {
			w.path = append(w.path[:k], ":set"...)
			w.visit(interp.ObjectValue(s))
		}
		w.path = w.path[:k]
		w.visit(p.Data())
	}
	for i, e := range o.Elems {
		w.path = append(strconv.AppendInt(append(w.path[:n], '['), int64(i), 10), ']')
		w.visit(e)
	}
	if o.Proto != nil {
		w.path = append(w.path[:n], ".__proto__"...)
		w.visit(interp.ObjectValue(o.Proto))
	}
	w.path = w.path[:n]
}

// HostRegistry is the registry of a realm built the way the pristine twin
// is: NewRegistry's answer, found by following the twin's edges instead of
// walking. Each global the twin binds, each intrinsic and each edge out of each registered
// object — getter, setter and value of every own property, every element,
// the prototype — must lead where the twin's does: to the object the realm
// holds at the same ordinal (the first such edge supplies it), or to no
// object where the twin has none. Keys, own-key counts, element counts and
// the number of globals must match too. A realm that fails any of this —
// its host added a native, or pointed an edge elsewhere — is walked
// instead, and gets the Sum its own graph has.
func HostRegistry(in *interp.Interp) *Registry {
	twin, t := pristine()
	objs := make([]*interp.Object, len(twin.objs))
	link := func(o *interp.Object, want int32) bool {
		switch {
		case want < 0:
			return o == nil
		case objs[want] == nil:
			objs[want] = o
			return o != nil
		}
		return objs[want] == o
	}
	ok := in.Global.GlobalCount() == len(t.globals)
	for _, g := range t.globals {
		v, _ := in.Global.Lookup(g.name)
		ok = ok && link(v.Obj(), g.ord)
	}
	for k, ord := range t.intrinsics {
		v, _ := in.Intrinsic(ast.Intrinsic(k))
		ok = ok && link(v.Obj(), ord)
	}
	l := t.links
	for i := 0; ok && i < len(objs); i++ {
		o, tw := objs[i], twin.objs[i]
		n, m := tw.OwnPropCount(), len(tw.Elems)
		ok = o.OwnPropCount() == n && len(o.Elems) == m
		for j := 0; ok && j < n; j++ {
			tkey, _ := tw.OwnPropAt(j)
			key, p := o.OwnPropAt(j)
			ok = key == tkey && link(p.Getter(), l[3*j]) && link(p.Setter(), l[3*j+1]) && link(p.Value.Obj(), l[3*j+2])
		}
		l = l[3*n:]
		for j := 0; ok && j < m; j++ {
			ok = link(o.Elems[j].Obj(), l[j])
		}
		ok = ok && link(o.Proto, l[m])
		l = l[m+1:]
	}
	if !ok {
		return NewRegistry(in)
	}
	return &Registry{objs: objs, sum: twin.sum}
}

// Ordinal resolves a host object to its registry ordinal.
func (r *Registry) Ordinal(o *interp.Object) (int, bool) {
	r.index()
	i, ok := r.byObj[o]
	return i, ok
}

// index builds the object → ordinal map of a filled registry (a walk
// builds its own). One object at two ordinals is a host that aliased one
// native onto another's path: the edge checks cannot tell, and the walk
// would have registered it once, under another Sum. Such a registry gets
// Sum 0, which no blob carries.
func (r *Registry) index() {
	r.ordOnce.Do(func() {
		if r.byObj != nil {
			return
		}
		r.byObj = make(map[*interp.Object]int, len(r.objs))
		for i, o := range r.objs {
			if _, dup := r.byObj[o]; !dup {
				r.byObj[o] = i
			}
		}
		if len(r.byObj) != len(r.objs) {
			r.sum = 0
		}
	})
}

// Object resolves an ordinal back to the realm's object.
func (r *Registry) Object(i int) *interp.Object {
	if i < 0 || i >= len(r.objs) {
		return nil
	}
	return r.objs[i]
}

// Len reports the registry size.
func (r *Registry) Len() int { return len(r.objs) }

// Sum is the path-list fingerprint embedded in blobs.
func (r *Registry) Sum() uint64 {
	r.index()
	return r.sum
}

// The pristine twin: one throwaway realm per process, built with default
// options and never executed, whose registry supplies the *initial* state
// of every host object for delta comparison, and whose walk every other
// realm's registry is filled from. The host graph's structure does not
// depend on engine profile, clocks, or runtime options — only on which
// natives the interpreter and runtime install, which is fixed — so one twin
// serves every realm in the process. Guarded by a Once; the realm costs a
// few hundred objects. Nothing extends the twin's objects after the Once,
// and a shape lookup never writes, so concurrent encoders share it.
var (
	pristineOnce  sync.Once
	pristineReg   *Registry
	pristineTable *hostTable
)

// hostTable is the twin's walk, flattened for HostRegistry: the ordinal
// each global and each intrinsic binds, and for each registered object in ordinal order the
// ordinal each edge out of it leads to — getter, setter and value per own
// property, one per element, then the prototype — with -1 for no object.
type hostTable struct {
	globals    []hostGlobal
	intrinsics [ast.NumIntrinsics]int32
	links      []int32
}

type hostGlobal struct {
	name string
	ord  int32
}

func pristine() (*Registry, *hostTable) {
	pristineOnce.Do(func() {
		loop := eventloop.New(eventloop.NewVirtualClock())
		in := interp.New(interp.Options{Loop: loop})
		rt.New(in, loop, rt.Options{})
		r := NewRegistry(in)
		ord := func(o *interp.Object) int32 {
			if i, ok := r.byObj[o]; ok {
				return int32(i)
			}
			return -1
		}
		t := &hostTable{}
		for _, name := range in.Global.GlobalNames() {
			v, _ := in.Global.Lookup(name)
			t.globals = append(t.globals, hostGlobal{name, ord(v.Obj())})
		}
		for k := range t.intrinsics {
			v, _ := in.Intrinsic(ast.Intrinsic(k))
			t.intrinsics[k] = ord(v.Obj())
		}
		for _, o := range r.objs {
			for j := range o.OwnPropCount() {
				_, p := o.OwnPropAt(j)
				t.links = append(t.links, ord(p.Getter()), ord(p.Setter()), ord(p.Value.Obj()))
			}
			for _, e := range o.Elems {
				t.links = append(t.links, ord(e.Obj()))
			}
			t.links = append(t.links, ord(o.Proto))
		}
		pristineReg, pristineTable = r, t
	})
	return pristineReg, pristineTable
}
