package interp

import (
	"runtime"
	"strconv"
	"testing"
	"weak"
)

// Shape-chain tests: a first transition shares its parent's keys, accessor
// flags and index, so a shape on the chain must still answer for exactly its
// own keys once a descendant has added more, and building an n-key object
// must cost O(n).

// keysN returns n distinct property names, built outside any measurement.
func keysN(prefix string, n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = prefix + strconv.Itoa(i)
	}
	return ks
}

// objectBytes reports what building one object of the given keys, on a
// prototype whose transition tree is empty, allocates.
func objectBytes(keys []string) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		proto := NewObject(nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := NewObject(proto)
		for _, k := range keys {
			o.SetOwn(k, num(1))
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(o)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestShapeChainAllocatesLinearly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	half, full := objectBytes(keysN("k", 1000)), objectBytes(keysN("k", 2000))
	t.Logf("a 1000-key object: %d bytes; a 2000-key object: %d bytes (%.0f per key)", half, full, float64(full)/2000)
	// Doubling the keys doubles a linear cost and quadruples a quadratic
	// one; the index map's growth steps leave a linear build well under
	// 2.5 x. Per key: a Shape, a slot, and the amortized slices and map.
	if full > half*5/2 {
		t.Errorf("2000 keys cost %d bytes, 1000 keys %d: more than 2.5 x, so not linear", full, half)
	}
	if full > 2000*480 {
		t.Errorf("a 2000-key object allocated %d bytes, over 480 per key", full)
	}
}

// chainFixture builds, on one prototype, an object a of 12 keys and an
// object b that stopped at a's shape after n keys, then extends that shape
// again through c with a key a does not have, so b's shape is the parent
// of a first child (a's chain) and of a later one (c's).
func chainFixture(t *testing.T, n int) (a, b, c *Object, keys []string) {
	t.Helper()
	in := newTestInterp()
	proto := in.NewPlainObject()
	keys = keysN("k", 12)
	b = NewObject(proto)
	for i, k := range keys[:n] {
		b.SetOwn(k, num(float64(100+i)))
	}
	a = NewObject(proto)
	for i, k := range keys {
		a.SetOwn(k, num(float64(i)))
	}
	c = NewObject(proto)
	for i, k := range keys[:n] {
		c.SetOwn(k, num(float64(200+i)))
	}
	c.SetOwn("other", num(float64(200+n)))
	if b.shape.first == nil || b.shape.first == c.shape || len(b.shape.transitions) != 1 {
		t.Fatalf("fixture: b's shape should have a's chain as its first child and c's shape after it")
	}
	return a, b, c, keys
}

// checkOwn fails unless o holds exactly want, in that insertion order, with
// the value base+i at key i, and answers no other key in keys.
func checkOwn(t *testing.T, what string, o *Object, want, keys []string, base float64) {
	t.Helper()
	if n := o.OwnPropCount(); n != len(want) {
		t.Fatalf("%s: %d own properties, want %d", what, n, len(want))
	}
	has := map[string]bool{}
	for i, k := range want {
		has[k] = true
		if got, _ := o.OwnPropAt(i); got != k {
			t.Fatalf("%s: own property %d is %q, want %q", what, i, got, k)
		}
		if p, ok := o.OwnProp(k); !ok || !p.IsAccessor() && !isNum(p.Value, base+float64(i)) {
			t.Fatalf("%s: Own(%q) = %+v, want %v", what, k, p, base+float64(i))
		}
	}
	for _, k := range keys {
		if !has[k] && o.Own(k) != nil {
			t.Fatalf("%s: Own(%q) found a key the object lacks", what, k)
		}
	}
}

// TestShapeChainLookupsAtAnIntermediateShape holds lookups on an object
// left part-way down a chain that others extended, before and after each
// mutation that rebuilds its shape, for a shape that scans its keys (n ≤
// smallShape) and one that reads the shared index.
func TestShapeChainLookupsAtAnIntermediateShape(t *testing.T) {
	for _, n := range []int{5, smallShape, smallShape + 2} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			a, b, c, keys := chainFixture(t, n)
			all := append(keys, "other")
			checkOwn(t, "a", a, keys, all, 0)
			checkOwn(t, "b", b, keys[:n], all, 100)
			checkOwn(t, "c", c, append(keys[:n:n], "other"), all, 200)

			// Delete: b's shape is rebuilt from the root without k1.
			b.Delete(keys[1])
			rest := append(append([]string{}, keys[0]), keys[2:n]...)
			for i, k := range rest {
				*b.Own(k) = num(float64(100 + i))
			}
			checkOwn(t, "b after delete", b, rest, all, 100)

			// SetProto: re-rooted under another prototype's tree.
			b.SetProto(NewObject(nil))
			checkOwn(t, "b after SetProto", b, rest, all, 100)

			// Data → accessor → data on the last key, each a rebuild.
			last := rest[len(rest)-1]
			g := NewObject(nil)
			b.SetAccessor(last, g, nil, true)
			if p, ok := b.OwnProp(last); !ok || p.Getter() != g {
				t.Fatalf("b.%s is not the accessor just installed", last)
			}
			checkOwn(t, "b as accessor", b, rest, all, 100)
			b.SetOwn(last, num(float64(100+len(rest)-1)))
			checkOwn(t, "b back to data", b, rest, all, 100)

			// The siblings' shapes are untouched by b's rebuilds.
			checkOwn(t, "a after b's rebuilds", a, keys, all, 0)
			checkOwn(t, "c after b's rebuilds", c, append(keys[:n:n], "other"), all, 200)
		})
	}
}

// TestRemovedValuesAreCollectable: a value a delete or a pop removed must
// not stay reachable from the holder's backing array.
func TestRemovedValuesAreCollectable(t *testing.T) {
	in := newTestInterp()
	pop := in.arrayProto.Own("pop").Obj().side.fn
	for _, tc := range []struct {
		name   string
		hold   func(v *Object) *Object
		remove func(holder *Object)
	}{
		{"delete", func(v *Object) *Object {
			o := in.NewPlainObject()
			o.SetOwn("a", num(1))
			o.SetOwn("b", ObjectValue(v))
			return o
		}, func(o *Object) { o.Delete("b") }},
		{"pop", func(v *Object) *Object {
			return in.NewArray([]Value{num(1), ObjectValue(v)})
		}, func(a *Object) {
			if _, err := pop(in, ObjectValue(a), nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			holder, w := holdWeakly(tc.hold)
			tc.remove(holder)
			runtime.GC()
			runtime.GC()
			if w.Value() != nil {
				t.Errorf("the removed value survived two collections while its holder is alive")
			}
			runtime.KeepAlive(holder)
		})
	}
}

// holdWeakly builds a value, hands it to hold, and keeps only a weak
// pointer to it.
func holdWeakly(hold func(v *Object) *Object) (*Object, weak.Pointer[Object]) {
	v := NewObject(nil)
	return hold(v), weak.Make(v)
}
