package snapshot

import (
	"hash/fnv"
	"strconv"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eventloop"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/rt"
)

// referencePaths is the registry walk as first written: one path string
// built per visited node, the registered ones kept, the globals' and then
// the intrinsics'. The fingerprint blobs carry was defined over this list, so the buffer-based walk must register
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
		for j := range o.OwnPropCount() {
			key, p := o.OwnPropAt(j)
			if g := p.Getter(); g != nil {
				visit(path+"."+key+":get", interp.ObjectValue(g))
			}
			if s := p.Setter(); s != nil {
				visit(path+"."+key+":set", interp.ObjectValue(s))
			}
			visit(path+"."+key, p.Data())
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
	for k := range ast.NumIntrinsics {
		v, _ := in.Intrinsic(k)
		visit("%"+ast.IntrinsicNames[k], v)
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

// hostRealm builds a realm the way every realm is built before its
// registry, then lets change install or replace host natives.
func hostRealm(change func(in *interp.Interp)) *interp.Interp {
	loop := eventloop.New(eventloop.NewVirtualClock())
	in := interp.New(interp.Options{Loop: loop, Seed: 7})
	rt.New(in, loop, rt.Options{Instrument: instrument.Options{Strategy: instrument.Exceptional}, DeepStacks: true})
	if change != nil {
		change(in)
	}
	return in
}

// sameRegistry fails unless got holds want's objects at want's ordinals
// under want's Sum.
func sameRegistry(t *testing.T, got, want *Registry) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("registry holds %d objects, the walk %d", got.Len(), want.Len())
	}
	for i := range want.Len() {
		if got.Object(i) != want.Object(i) {
			t.Fatalf("ordinal %d is a different object", i)
		}
		if j, ok := got.Ordinal(want.Object(i)); !ok || j != i {
			t.Fatalf("Ordinal(object %d) = %d, %v", i, j, ok)
		}
	}
	if got.Sum() != want.Sum() {
		t.Fatalf("Sum() = %#x, the walk's %#x", got.Sum(), want.Sum())
	}
}

// TestHostRegistryFillsFromTheTwin: a realm whose host graph is the twin's
// fills its column by following the twin's edges — no walk, no map until
// an ordinal is asked for — and ends with what a walk of it would find.
func TestHostRegistryFillsFromTheTwin(t *testing.T) {
	in := hostRealm(nil)
	reg := HostRegistry(in)
	if reg.byObj != nil {
		t.Fatal("a realm built like the twin was walked, or indexed before its first Ordinal")
	}
	twin, _ := pristine()
	sameRegistry(t, reg, NewRegistry(in))
	if reg.Sum() != twin.Sum() {
		t.Fatalf("Sum() = %#x, the twin's %#x", reg.Sum(), twin.Sum())
	}
}

// TestHostRegistryRefusesADifferentHostGraph: a realm whose host installed
// or replaced something before its registry must not get the twin's Sum.
// Where the edge checks see the difference the realm is walked, and gets
// the walk's answer; a native aliased onto another's path passes them and
// is caught when the ordinal map is built.
func TestHostRegistryRefusesADifferentHostGraph(t *testing.T) {
	twin, _ := pristine()
	get := func(in *interp.Interp, path ...string) *interp.Object {
		v, _ := in.Global.Lookup(path[0])
		o := v.Obj()
		for _, k := range path[1:] {
			o = o.Own(k).Obj()
		}
		return o
	}
	for name, change := range map[string]func(in *interp.Interp){
		"extra global": func(in *interp.Interp) {
			in.DefineGlobal("$host", interp.ObjectValue(in.NewNative("host", nil)))
		},
		"extra property": func(in *interp.Interp) {
			get(in, "Math").SetHidden("extra", interp.ObjectValue(in.NewNative("extra", nil)))
		},
		"replaced native": func(in *interp.Interp) {
			get(in, "Math").SetHidden("abs", interp.ObjectValue(in.NewNative("abs", nil)))
		},
		"new prototype": func(in *interp.Interp) {
			get(in, "Math", "abs").SetProto(interp.NewObject(nil))
		},
		"primitive to object": func(in *interp.Interp) {
			in.DefineGlobal("NaN", interp.ObjectValue(interp.NewObject(nil)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			in := hostRealm(change)
			reg, walked := HostRegistry(in), NewRegistry(in)
			sameRegistry(t, reg, walked)
			if name != "replaced native" && reg.Sum() == twin.Sum() {
				t.Fatalf("a different host graph got the twin's Sum %#x", twin.Sum())
			}
		})
	}
	t.Run("aliased native", func(t *testing.T) {
		in := hostRealm(func(in *interp.Interp) {
			get(in, "Math").SetHidden("min", interp.ObjectValue(get(in, "Math", "max")))
		})
		if reg := HostRegistry(in); reg.Sum() == twin.Sum() {
			t.Fatalf("a realm with Math.min aliased to Math.max got the twin's Sum %#x", twin.Sum())
		}
	})
}

// BenchmarkRegistry sets a realm's registry by walking its host graph and
// by filling it from the twin's table, as every realm but the twin does.
func BenchmarkRegistry(b *testing.B) {
	in := hostRealm(nil)
	for name, build := range map[string]func(*interp.Interp) *Registry{"walk": NewRegistry, "fill": HostRegistry} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				build(in)
			}
		})
	}
}

// TestHostRegistryConcurrentRealms builds realms and their registries from
// several goroutines while others read the twin's objects, as concurrent
// encoders do, and asks one filled registry for its Sum and ordinals from
// all of them: run under -race.
func TestHostRegistryConcurrentRealms(t *testing.T) {
	shared := HostRegistry(hostRealm(nil))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := HostRegistry(hostRealm(nil))
			twin, _ := pristine()
			for i := range twin.Len() {
				for j := range twin.Object(i).OwnPropCount() {
					key, _ := twin.Object(i).OwnPropAt(j)
					if twin.Object(i).Own(key) == nil {
						t.Errorf("twin ordinal %d lost own key %q", i, key)
					}
				}
				if k, ok := shared.Ordinal(shared.Object(i)); !ok || k != i {
					t.Errorf("shared Ordinal(%d) = %d, %v", i, k, ok)
				}
			}
			if reg.Sum() != twin.Sum() || shared.Sum() != twin.Sum() {
				t.Errorf("a realm built like the twin has Sum %#x, the twin %#x", reg.Sum(), twin.Sum())
			}
		}()
	}
	wg.Wait()
}
