package snapshot

import (
	"hash"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
)

// Registry is the host-object re-link table: every object reachable from a
// realm's globals before the prelude runs — builtins, prototypes, the
// Stopify runtime's natives and stack arrays — indexed by a deterministic
// traversal path. Host objects cross the serialization boundary by name:
// the encoder writes the ordinal, the decoder re-links the ordinal to the
// same-path object in the destination realm. Guest mutations *of* host
// objects (a monkey-patched builtin, a property added to Object.prototype)
// are captured separately, as deltas against a pristine twin realm (see
// encode.go), so the registry itself never needs to copy initial state.
//
// The traversal is deterministic because everything it consults is:
// global names sorted, own properties in shape insertion order, elements
// in index order, prototype last. Both sides build their registry at the
// same realm-construction point (after the runtime installs its globals,
// before the prelude executes), so ordinals agree; a fingerprint in the
// blob turns any drift into a loud decode error.
type Registry struct {
	objs  []*interp.Object
	byObj map[*interp.Object]int
	sum   uint64
}

// NewRegistry enumerates the realm's pre-prelude host graph. Call it right
// after rt.New (and any host-native installation that must survive
// snapshots), before the prelude runs.
func NewRegistry(in *interp.Interp) *Registry {
	n := int(registrySize.Load())
	w := registryWalk{
		r: &Registry{objs: make([]*interp.Object, 0, n), byObj: make(map[*interp.Object]int, n)},
		h: fnv.New64a(),
	}
	root := in.Global
	for _, name := range root.GlobalNames() {
		v, _ := root.Lookup(name)
		w.path = append(w.path[:0], name...)
		w.visit(v)
	}
	w.r.sum = w.h.Sum64()
	registrySize.Store(int64(len(w.r.objs)))
	return w.r
}

// registrySize is the last walk's object count, the next one's capacity hint.
var registrySize atomic.Int64

// registryWalk is one traversal's state. Every realm build walks the whole
// host graph, so the path of the object being visited lives in one buffer
// that grows and shrinks with the descent, and the fingerprint — FNV-64a
// over each registered object's path and a NUL, in registration order — is
// fed as objects are registered instead of from a kept list of paths.
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
	for _, p := range o.OwnProps() {
		w.path = append(append(w.path[:n], '.'), p.Key...)
		k := len(w.path)
		if p.Prop.Getter != nil {
			w.path = append(w.path, ":get"...)
			w.visit(interp.ObjectValue(p.Prop.Getter))
		}
		if p.Prop.Setter != nil {
			w.path = append(w.path[:k], ":set"...)
			w.visit(interp.ObjectValue(p.Prop.Setter))
		}
		w.path = w.path[:k]
		w.visit(p.Prop.Value)
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

// Ordinal resolves a host object to its registry ordinal.
func (r *Registry) Ordinal(o *interp.Object) (int, bool) {
	i, ok := r.byObj[o]
	return i, ok
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
func (r *Registry) Sum() uint64 { return r.sum }

// The pristine twin: one throwaway realm per process, built with default
// options and never executed, whose registry supplies the *initial* state
// of every host object for delta comparison. The host graph's structure
// does not depend on engine profile, clocks, or runtime options — only on
// which natives the interpreter and runtime install, which is fixed — so
// one twin serves every snapshot in the process. Guarded by a Once; the
// realm costs a few hundred objects.
var (
	pristineOnce sync.Once
	pristineReg  *Registry
)

func pristine() *Registry {
	pristineOnce.Do(func() {
		loop := eventloop.New(eventloop.NewVirtualClock())
		in := interp.New(interp.Options{Loop: loop})
		rt.New(in, loop, rt.Options{})
		pristineReg = NewRegistry(in)
	})
	return pristineReg
}
