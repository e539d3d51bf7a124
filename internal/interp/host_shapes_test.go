package interp_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
	"repro/internal/snapshot"
)

// hostObjects visits every object reachable from a realm's globals once,
// depth first from the sorted global names, with a path naming it.
func hostObjects(in *interp.Interp, visit func(path string, o *interp.Object)) {
	seen := map[*interp.Object]bool{}
	var walk func(path string, o *interp.Object)
	walk = func(path string, o *interp.Object) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		visit(path, o)
		for j := range o.OwnPropCount() {
			key, p := o.OwnPropAt(j)
			walk(path+"."+key+":get", p.Getter())
			walk(path+"."+key+":set", p.Setter())
			walk(path+"."+key, p.Data().Obj())
		}
		for i, e := range o.Elems {
			walk(fmt.Sprintf("%s[%d]", path, i), e.Obj())
		}
		walk(path+".__proto__", o.Proto)
	}
	for _, name := range in.Global.GlobalNames() {
		v, _ := in.Global.Lookup(name)
		walk(name, v.Obj())
	}
}

// keyLists is every host object's own keys in order, each with its kind
// and enumerability, by path.
func keyLists(in *interp.Interp) map[string][]string {
	out := map[string][]string{}
	hostObjects(in, func(path string, o *interp.Object) {
		keys := []string{}
		for j := range o.OwnPropCount() {
			key, p := o.OwnPropAt(j)
			keys = append(keys, fmt.Sprintf("%s/%v/%v", key, p.IsAccessor(), p.Enumerable))
		}
		out[path] = keys
	})
	return out
}

func global(in *interp.Interp, name string) *interp.Object {
	v, _ := in.Global.Lookup(name)
	return v.Obj()
}

// mutatedHosts are the host objects a guest most often reshapes: Math,
// Array.prototype and Object.prototype.
func mutatedHosts(in *interp.Interp) []*interp.Object {
	return []*interp.Object{
		global(in, "Math"),
		global(in, "Array").Own("prototype").Obj(),
		global(in, "Object").Own("prototype").Obj(),
	}
}

// reshape makes every structural change to o — a key with no frozen edge,
// a delete, a re-add, a flip to an accessor and back, a new prototype and
// the old one again — and checks o's keys come out in the order they must.
func reshape(t *testing.T, in *interp.Interp, o *interp.Object) {
	var want []string
	for j := range o.OwnPropCount() {
		key, _ := o.OwnPropAt(j)
		want = append(want, key)
	}
	get := in.NewNative("get", func(*interp.Interp, interp.Value, []interp.Value) (interp.Value, error) {
		return interp.NumberValue(7), nil
	})
	o.SetOwn("extra", interp.NumberValue(1))
	o.Delete(want[0])
	o.SetHidden(want[0], interp.NumberValue(2))
	o.SetAccessor(want[1], get, nil, false)
	if p, ok := o.OwnProp(want[1]); !ok || !p.IsAccessor() {
		t.Errorf("%s did not become an accessor", want[1])
	}
	o.SetHidden(want[1], interp.NumberValue(3))
	proto := o.Proto
	o.SetProto(interp.NewObject(nil))
	o.SetProto(proto)
	want = append(append(want[1:], "extra"), want[0])
	var got []string
	for j := range o.OwnPropCount() {
		key, _ := o.OwnPropAt(j)
		got = append(got, key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reshaped keys %v, want %v", got, want)
	}
	if _, frozen := interp.HostShape(o); frozen {
		t.Error("a reshaped host object still carries a frozen shape")
	}
}

// TestHostShapesShared: the builtin graph's shapes are built once per
// process and shared, read-only, by every realm (shape.go). Every host
// object a fresh realm reaches carries one of them, so a builtin that
// bypasses the template fails here rather than quietly costing bytes; two
// realms' Math share one shape; realms built while other realms reshape
// their Math, Array.prototype and Object.prototype still see the pristine
// key lists (run under -race, a thaw that wrote a shared shape fails
// here); and the snapshot codec's host registry still fills from its twin.
func TestHostShapesShared(t *testing.T) {
	in := interp.New(interp.Options{})
	objects := 0
	hostObjects(in, func(path string, o *interp.Object) {
		objects++
		if s, frozen := interp.HostShape(o); s != nil && !frozen {
			t.Errorf("%s carries a shape of its own realm: a builtin built off the frozen template", path)
		}
	})
	if objects < 100 {
		t.Fatalf("a fresh realm reaches %d host objects: the walk is not finding the builtin graph", objects)
	}

	a, _ := interp.HostShape(global(in, "Math"))
	b, _ := interp.HostShape(global(interp.New(interp.Options{}), "Math"))
	if a == nil || a != b {
		t.Errorf("two realms' Math carry shapes %p and %p, want one shared shape", a, b)
	}
	guest := in.NewPlainObject()
	first, _ := global(in, "Math").OwnPropAt(0)
	guest.SetHidden(first, interp.NumberValue(1))
	if _, frozen := interp.HostShape(guest); frozen {
		t.Errorf("a guest object that adds %q, as Math did first, landed on Math's frozen shape", first)
	}

	pristine := keyLists(in)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				r := interp.New(interp.Options{})
				if got := keyLists(r); !reflect.DeepEqual(got, pristine) {
					t.Error("a fresh realm's host key lists differ from the pristine ones")
					return
				}
				if g%2 == 1 {
					for _, o := range mutatedHosts(r) {
						reshape(t, r, o)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := keyLists(in); !reflect.DeepEqual(got, pristine) {
		t.Error("the first realm's host key lists changed while other realms reshaped theirs")
	}

	loop := eventloop.New(eventloop.NewVirtualClock())
	r := interp.New(interp.Options{Loop: loop})
	rt.New(r, loop, rt.Options{})
	var reg *snapshot.Registry
	if allocs := testing.AllocsPerRun(1, func() { reg = snapshot.HostRegistry(r) }); allocs > 4 {
		t.Errorf("HostRegistry allocated %v times: a fresh realm was walked, not filled from the twin", allocs)
	}
	walk := snapshot.NewRegistry(r)
	if reg.Len() != walk.Len() || reg.Sum() != walk.Sum() {
		t.Fatalf("filled registry of %d objects, Sum %#x; the walk finds %d, Sum %#x", reg.Len(), reg.Sum(), walk.Len(), walk.Sum())
	}
	for i := range walk.Len() {
		if reg.Object(i) != walk.Object(i) {
			t.Fatalf("ordinal %d is a different object in the filled registry and the walk", i)
		}
	}
}
