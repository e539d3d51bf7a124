package snapshot

import (
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
)

// referencePaths is the registry walk as first written: one path string
// built per visited node, the registered ones kept. The fingerprint blobs
// carry was defined over this list, so the buffer-based walk must register
// the same objects in the same order under the same paths.
func referencePaths(in *interp.Interp) (paths []string, objs []*interp.Object) {
	seen := map[*interp.Object]bool{}
	var visit func(path string, v interp.Value)
	visit = func(path string, v interp.Value) {
		o := v.Obj()
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		objs = append(objs, o)
		paths = append(paths, path)
		for _, p := range o.OwnProps() {
			if p.Prop.Getter != nil {
				visit(path+"."+p.Key+":get", interp.ObjectValue(p.Prop.Getter))
			}
			if p.Prop.Setter != nil {
				visit(path+"."+p.Key+":set", interp.ObjectValue(p.Prop.Setter))
			}
			visit(path+"."+p.Key, p.Prop.Value)
		}
		for i, e := range o.Elems {
			visit(path+"["+strconv.Itoa(i)+"]", e)
		}
		if o.Proto != nil {
			visit(path+".__proto__", interp.ObjectValue(o.Proto))
		}
	}
	for _, name := range in.Global.GlobalNames() {
		v, _ := in.Global.Lookup(name)
		visit(name, v)
	}
	return paths, objs
}

func TestRegistryMatchesReferenceWalk(t *testing.T) {
	loop := eventloop.New(eventloop.NewVirtualClock())
	in := interp.New(interp.Options{Loop: loop})
	rt.New(in, loop, rt.Options{})
	// Host natives a realm might add before the registry is built: an
	// accessor pair and an array of objects, the two path forms the stock
	// globals exercise least.
	host := interp.NewObject(nil)
	host.SetAccessor("acc", in.NewNative("accGet", nil), in.NewNative("accSet", nil), true)
	host.SetOwn("list", interp.ObjectValue(in.NewArray([]interp.Value{
		interp.ObjectValue(interp.NewObject(nil)), interp.NumberValue(1), interp.ObjectValue(interp.NewObject(nil)),
	})))
	in.DefineGlobal("$host", interp.ObjectValue(host))

	paths, objs := referencePaths(in)
	h := fnv.New64a()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	reg := NewRegistry(in)
	if reg.Len() != len(objs) {
		t.Fatalf("registry holds %d objects, the reference walk %d", reg.Len(), len(objs))
	}
	for i, o := range objs {
		if reg.Object(i) != o {
			t.Fatalf("ordinal %d (%s) is a different object", i, paths[i])
		}
	}
	if reg.Sum() != h.Sum64() {
		t.Fatalf("Sum() = %#x, the reference path list hashes to %#x", reg.Sum(), h.Sum64())
	}
}
