package interp

import (
	"testing"

	"repro/internal/ast"
)

// Shape/IC invariant tests: transition sharing, cache hits after a shape
// match, and invalidation on delete, accessor installation, and prototype
// mutation. These poke the unexported machinery directly; end-to-end
// property semantics are covered in internal/core.

// newTestInterp reserves cache entries for the hand-picked site IDs the
// tests below pass to the *Site accessors.
func newTestInterp() *Interp {
	in := New(Options{})
	in.ReserveSites(ast.Sites{Member: 31, Global: 3})
	return in
}

// num / str build tagged test values tersely.
func num(f float64) Value { return NumberValue(f) }
func str(s string) Value  { return StringValue(s) }
func isNum(v Value, f float64) bool {
	return v.IsNumber() && StrictEquals(v, NumberValue(f))
}
func isStr(v Value, s string) bool {
	return v.IsString() && v.Str() == s
}

func TestShapeTransitionSharing(t *testing.T) {
	in := newTestInterp()
	a := in.NewPlainObject()
	b := in.NewPlainObject()
	a.SetOwn("x", num(1))
	a.SetOwn("y", num(2))
	b.SetOwn("x", num(3))
	b.SetOwn("y", num(4))
	if a.shape == nil || a.shape != b.shape {
		t.Fatalf("objects built along the same path must share a shape: %p vs %p", a.shape, b.shape)
	}
	c := in.NewPlainObject()
	c.SetOwn("y", num(5)) // different insertion order → different shape
	c.SetOwn("x", num(6))
	if c.shape == a.shape {
		t.Fatal("different insertion order must not share the shape")
	}
	if got := a.shape.keys; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("shape keys = %v, want [x y]", got)
	}
}

func TestShapeDeleteRebuildsAndResharesTree(t *testing.T) {
	in := newTestInterp()
	a := in.NewPlainObject()
	a.SetOwn("x", num(1))
	a.SetOwn("y", num(2))
	a.SetOwn("z", num(3))
	before := a.shape
	if !a.Delete("y") {
		t.Fatal("Delete(y) reported the property missing")
	}
	if a.shape == before {
		t.Fatal("delete must move the object to a different shape")
	}
	// The rebuilt shape reuses the shared transition tree: an object built
	// as {x, z} directly lands on the same shape.
	b := in.NewPlainObject()
	b.SetOwn("x", num(0))
	b.SetOwn("z", num(0))
	if a.shape != b.shape {
		t.Fatalf("post-delete shape should rejoin the tree: %p vs %p", a.shape, b.shape)
	}
	if p := a.Own("z"); p == nil || !isNum(*p, 3) {
		t.Fatal("slots were not compacted correctly on delete")
	}
	if a.Own("y") != nil {
		t.Fatal("deleted property still present")
	}
}

func TestShapeAccessorConversionChangesShape(t *testing.T) {
	in := newTestInterp()
	a := in.NewPlainObject()
	a.SetOwn("x", num(1))
	before := a.shape
	getter := in.NewNative("g", func(in *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(42), nil
	})
	a.SetAccessor("x", getter, nil, true)
	if a.shape == before {
		t.Fatal("data→accessor conversion must change the shape")
	}
	mid := a.shape
	a.SetOwn("x", num(2))
	if a.shape == mid {
		t.Fatal("accessor→data conversion must change the shape")
	}
	// Kind rides on the transition edge, so the conversion back lands on
	// the canonical data shape — shared with objects built as {x: data}.
	if a.shape != before {
		t.Fatalf("accessor→data conversion should rejoin the data-shaped tree: %p vs %p", a.shape, before)
	}
	// And an object built directly with an accessor shares the accessor
	// shape, never the data one.
	b := in.NewPlainObject()
	b.SetAccessor("x", getter, nil, true)
	if b.shape != mid {
		t.Fatalf("accessor-built object should share the accessor shape: %p vs %p", b.shape, mid)
	}
	if b.shape == before {
		t.Fatal("accessor-bearing object must not share a shape with data-shaped objects")
	}
}

func TestSetICNeverBypassesAccessorSharingCreationPath(t *testing.T) {
	// Regression: a warm set-IC site filled by data-shaped objects must not
	// write through the cached slot when it later sees an object whose same-
	// named property is an accessor. Before transition edges encoded kind,
	// {x: data} and {set x(){}} shared a shape and the fast path silently
	// overwrote the accessor slot's Value.
	in := newTestInterp()
	const site = 29
	write := func(o *Object, v Value) {
		if err := in.setMemberSite(ObjectValue(o), "x", v, site); err != nil {
			t.Fatal(err)
		}
	}
	a := in.NewPlainObject()
	a.SetOwn("x", num(0))
	write(a, num(1)) // fills the own-hit entry
	write(a, num(2)) // warm hit
	if !isNum(*a.Own("x"), 2) {
		t.Fatal("warm data write failed")
	}
	got := Undefined
	setter := in.NewNative("s", func(in *Interp, this Value, args []Value) (Value, error) {
		got = args[0]
		return Undefined, nil
	})
	b := in.NewPlainObject()
	b.SetAccessor("x", nil, setter, true)
	if b.shape == a.shape {
		t.Fatal("accessor object must not share the data object's shape")
	}
	write(b, num(3))
	if !isNum(got, 3) {
		t.Fatalf("setter not invoked through warm set site; got %v", got)
	}
	if p, ok := b.OwnProp("x"); !ok || p.Setter() != setter {
		t.Fatalf("accessor slot corrupted by cached write: %+v", p)
	}
}

func TestDeleteAndSetProtoPreserveAccessorShape(t *testing.T) {
	// Regression: Delete and SetProto rebuild the shape by replaying
	// transition edges; the replay must preserve each key's kind so an
	// accessor-bearing object never rejoins the data-shaped tree.
	in := newTestInterp()
	const site = 31
	write := func(o *Object, v Value) {
		if err := in.setMemberSite(ObjectValue(o), "x", v, site); err != nil {
			t.Fatal(err)
		}
	}
	got := Undefined
	setter := in.NewNative("s", func(in *Interp, this Value, args []Value) (Value, error) {
		got = args[0]
		return Undefined, nil
	})

	// Warm the site with data-shaped {x} objects.
	d := in.NewPlainObject()
	d.SetOwn("x", num(0))
	write(d, num(1))
	write(d, num(2))

	// o: x converted to accessor in place, then another key deleted — the
	// rebuild must keep x's accessor-ness in the shape identity.
	o := in.NewPlainObject()
	o.SetOwn("x", num(0))
	o.SetOwn("y", num(0))
	o.SetAccessor("x", nil, setter, true)
	o.Delete("y")
	if o.shape == d.shape {
		t.Fatal("post-delete shape must not rejoin the data-shaped tree")
	}
	write(o, num(9))
	if !isNum(got, 9) {
		t.Fatalf("setter not invoked after delete-rebuild; got %v", got)
	}
	if p, ok := o.OwnProp("x"); !ok || p.Setter() != setter {
		t.Fatalf("accessor slot corrupted after delete-rebuild: %+v", p)
	}

	// Same for the SetProto re-rooting rebuild. Warm the site with a data
	// {x} object under the NEW prototype: q's rebuilt shape lives in p2's
	// transition tree, so a kind-dropping rebuild would land q exactly on
	// the warmed data shape and the fast path would bypass the setter.
	got = Undefined
	p2 := in.NewPlainObject()
	e := NewObject(p2)
	e.SetOwn("x", num(0))
	write(e, num(1))
	write(e, num(2))
	q := in.NewPlainObject()
	q.SetOwn("x", num(0))
	q.SetAccessor("x", nil, setter, true)
	q.SetProto(p2)
	if q.shape == e.shape {
		t.Fatal("post-SetProto shape must not rejoin the new prototype's data-shaped tree")
	}
	write(q, num(7))
	if !isNum(got, 7) {
		t.Fatalf("setter not invoked after SetProto rebuild; got %v", got)
	}
}

func TestGetICHitAndInvalidation(t *testing.T) {
	in := newTestInterp()
	const site = 7
	o := in.NewPlainObject()
	o.SetOwn("x", num(1))

	read := func() Value {
		v, err := in.getMemberSite(ObjectValue(o), "x", site)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(); !isNum(v, 1) {
		t.Fatalf("first read = %v", v)
	}
	c := in.icGetAt(site)
	if c.shape != o.shape || c.holder != nil || int(c.slot) != 0 {
		t.Fatalf("cache not filled with own hit: %+v", *c)
	}
	// Hit path: same shape, direct slot read.
	o.slots[0] = num(5)
	if v := read(); !isNum(v, 5) {
		t.Fatalf("cached read = %v, want 5", v)
	}
	// Delete invalidates via shape change.
	o.Delete("x")
	if !read().IsUndefined() {
		t.Fatal("read after delete must be undefined")
	}
	// Re-adding refills; converting to an accessor must then divert the
	// cached fast path to the getter.
	o.SetOwn("x", num(9))
	if v := read(); !isNum(v, 9) {
		t.Fatalf("read after re-add = %v", v)
	}
	getter := in.NewNative("g", func(in *Interp, this Value, args []Value) (Value, error) {
		return StringValue("from-getter"), nil
	})
	o.SetAccessor("x", getter, nil, true)
	if v := read(); !isStr(v, "from-getter") {
		t.Fatalf("read after accessor install = %v, want getter result", v)
	}
}

func TestGetICProtoHitAndProtoMutation(t *testing.T) {
	in := newTestInterp()
	const site = 11
	protoA := in.NewPlainObject()
	protoA.SetOwn("m", str("A"))
	o := NewObject(protoA)

	read := func() Value {
		v, err := in.getMemberSite(ObjectValue(o), "m", site)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(); !isStr(v, "A") {
		t.Fatalf("proto read = %v", v)
	}
	c := in.icGetAt(site)
	if c.holder != protoA {
		t.Fatalf("cache should record the proto holder, got %+v", *c)
	}
	if v := read(); !isStr(v, "A") {
		t.Fatalf("cached proto read = %v", v)
	}
	// Mutating the holder's layout invalidates via holder shape.
	protoA.SetOwn("other", num(1))
	if v := read(); !isStr(v, "A") {
		t.Fatalf("read after holder growth = %v", v)
	}
	// Replacing the prototype re-roots the receiver's shape; the stale
	// entry must miss.
	protoB := in.NewPlainObject()
	protoB.SetOwn("m", str("B"))
	o.SetProto(protoB)
	if v := read(); !isStr(v, "B") {
		t.Fatalf("read after SetProto = %v, want B", v)
	}
}

func TestGetICIntermediateShadowing(t *testing.T) {
	in := newTestInterp()
	const site = 13
	top := in.NewPlainObject()
	top.SetOwn("m", str("top"))
	mid := NewObject(top)
	o := NewObject(mid)

	read := func() Value {
		v, err := in.getMemberSite(ObjectValue(o), "m", site)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(); !isStr(v, "top") {
		t.Fatalf("chain read = %v", v)
	}
	// An object BETWEEN the receiver and the cached holder gains the key:
	// the protoEpoch guard must divert the next read to the new holder.
	mid.SetOwn("m", str("mid"))
	if v := read(); !isStr(v, "mid") {
		t.Fatalf("read after intermediate shadow = %v, want mid", v)
	}
}

func TestSetICTransitionAndAccessorInvalidation(t *testing.T) {
	in := newTestInterp()
	const site = 17
	proto := in.NewPlainObject()
	write := func(o *Object, v Value) {
		if err := in.setMemberSite(ObjectValue(o), "y", v, site); err != nil {
			t.Fatal(err)
		}
	}
	a := NewObject(proto)
	write(a, num(1)) // fills the transition entry
	b := NewObject(proto)
	write(b, num(2)) // transition hit
	if a.shape != b.shape {
		t.Fatal("transition writes should land both objects on the same shape")
	}
	if !isNum(*b.Own("y"), 2) {
		t.Fatal("transition hit wrote the wrong slot")
	}
	write(b, num(3)) // own-hit path now
	if !isNum(*b.Own("y"), 3) {
		t.Fatal("own-hit write failed")
	}
	// Installing a setter on the prototype must invalidate the cached
	// transition: the next write on a fresh object must call the setter
	// instead of shadowing.
	var got Value
	setter := in.NewNative("s", func(in *Interp, this Value, args []Value) (Value, error) {
		got = args[0]
		return Undefined, nil
	})
	proto.SetAccessor("y", nil, setter, true)
	fresh := NewObject(proto)
	write(fresh, num(9))
	if !isNum(got, 9) {
		t.Fatalf("setter did not run after accessor install on proto; got %v", got)
	}
	if fresh.Own("y") != nil {
		t.Fatal("write shadowed the proto setter")
	}
}

func TestGlobalCellCaching(t *testing.T) {
	in := newTestInterp()
	in.DefineGlobal("g", num(1))
	id := &ast.Ident{Name: "g", Ref: ast.RefGlobal, Site: 3}
	v, err := in.loadIdent(id, in.Global)
	if err != nil || !isNum(v, 1) {
		t.Fatalf("global read = %v, %v", v, err)
	}
	if in.icCellAt(3) == nil {
		t.Fatal("cell not cached after first lookup")
	}
	// Redefinition must write through the same cell so the cache stays
	// coherent.
	in.DefineGlobal("g", num(2))
	v, _ = in.loadIdent(id, in.Global)
	if !isNum(v, 2) {
		t.Fatalf("cached global read = %v, want 2", v)
	}
	in.store(id.Ref, id.Name, id.Site, num(3), in.Global)
	if got, _ := in.Global.Lookup("g"); !isNum(got, 3) {
		t.Fatalf("store through cached cell = %v, want 3", got)
	}
}

func TestToUint32LargeMagnitude(t *testing.T) {
	cases := []struct {
		in  float64
		i32 int32
		u32 uint32
	}{
		{1e20, 1661992960, 1661992960},
		{-1e20, -1661992960, 2632974336},
		{4294967296, 0, 0},
		{-1, -1, 4294967295},
		{3.7, 3, 3},
		{-3.7, -3, 4294967293},
	}
	for _, c := range cases {
		if got := ToInt32(c.in); got != c.i32 {
			t.Errorf("ToInt32(%v) = %d, want %d", c.in, got, c.i32)
		}
		if got := ToUint32(c.in); got != c.u32 {
			t.Errorf("ToUint32(%v) = %d, want %d", c.in, got, c.u32)
		}
	}
}

func TestSetICTransitionBumpsEpochForProtoReceiver(t *testing.T) {
	in := newTestInterp()
	const getSite, setSite = 19, 23
	// foo lives on a grandparent; P sits between it and the reader C.
	top := in.NewPlainObject()
	top.SetOwn("foo", num(1))
	p := NewObject(top)
	c := NewObject(p)

	read := func() Value {
		v, err := in.getMemberSite(ObjectValue(c), "foo", getSite)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(); !isNum(v, 1) {
		t.Fatalf("chain read = %v", v)
	}
	read() // cache hit; P is marked usedAsProto

	// D shares P's (empty) shape; writing through the site fills the
	// transition entry for that shape.
	d := NewObject(top)
	if err := in.setMemberSite(ObjectValue(d), "foo", num(5), setSite); err != nil {
		t.Fatal(err)
	}
	// The same site now writes to P via the cached transition fast path;
	// the epoch bump there must invalidate C's chain entry.
	if err := in.setMemberSite(ObjectValue(p), "foo", num(2), setSite); err != nil {
		t.Fatal(err)
	}
	if v := read(); !isNum(v, 2) {
		t.Fatalf("read after transition-IC write to prototype = %v, want 2 (shadowing P.foo)", v)
	}
}
