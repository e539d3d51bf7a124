package interp

import (
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Hidden classes ("shapes"). Every *Object with own properties points at a
// Shape that describes its property layout: Shape.keys lists the own keys in
// insertion order, and key i lives at index i of the object's flat slots
// array (Shape.index finds it in a shape of more than eight keys). Objects
// created along the same code path — the same sequence of property
// additions on the same prototype — share a Shape, because each addition
// follows the same cached transition edge. That sharing is what makes
// property inline caches possible: a cache entry that observed "key k lives
// at slot 3 of shape S" is valid for every object whose shape pointer is
// still S, so a hit is one pointer compare plus an array index instead of a
// hash lookup (and, for misses that walked the prototype chain, instead of
// a whole chain of hash lookups).
//
// Shape identity doubles as the invalidation mechanism. Any change that
// could make a cached (shape, slot) pair stale moves the object to a
// different Shape pointer:
//
//   - adding a property follows (or creates) a transition edge to a child
//     shape; the edge is keyed by (name, attributes), the attributes being
//     the property's kind (data or accessor) and its enumerability, so two
//     properties of one name that differ in either reach different shapes
//     and both are shape-stable facts — cached fast paths never need to
//     re-check them beyond the shape compare;
//   - deleting a property rebuilds the shape from the root without the
//     deleted key (and compacts the slots array to match), replaying each
//     surviving key with its recorded attributes;
//   - converting a data property to an accessor, or back, or changing its
//     enumerability, rebuilds the shape from the root with the new
//     attributes on that key's edge — the object lands on a different (but
//     canonical, shareable) shape;
//   - changing the prototype re-roots the shape under the new prototype's
//     transition tree, again replaying attributes.
//
// Prototype-chain caches (a hit found on a holder object some hops up the
// chain) additionally guard on the holder's shape and on protoEpoch, a
// global counter bumped whenever an object known to serve as a prototype
// gains a key, loses a key, changes a property's attributes, or has its
// own prototype replaced. The epoch catches the one case shape pointers
// cannot: an object *between* the receiver and the cached holder gaining a
// shadowing property. Objects are marked as prototypes (usedAsProto) the
// first time an inline-cache fill walks across them.
//
// Shape trees are rooted per prototype: the root shape for objects whose
// prototype is P hangs off P itself (Object.shapeRoot), so a shape compare
// implies a prototype compare. Objects with a nil prototype get a private
// root.
//
// The builtin graph's shapes are the exception: the same in every realm,
// they are built once per process (hostShapeRoots) and frozen — their root
// is the frozenRoot sentinel and nothing writes them. setupGlobals follows
// their edges; when it ends every builtin prototype's shapeRoot goes back
// to nil, so no guest object lands in a frozen tree. A host object's first
// structural change (a key with no frozen edge, a delete, a change of a
// key's attributes) rebuilds it into its realm's own tree first
// (Object.ownRoot). Inline caches are per realm, and within a realm a
// frozen shape is carried only by host objects on the prototype it was
// built for, so a shape compare still implies a prototype compare.

// Shape is one node of a transition tree: the layout of every object that
// was built by the same sequence of property additions.
//
// Building an n-key object costs O(n), not O(n²): a shape's first child
// extends the parent's keys and attrs slices in their spare capacity and
// adds its key to the parent's index, so a chain of first transitions
// shares one backing array and one map. Both stay valid for every shape on
// the chain: nothing below a shape's length is ever written, and a lookup
// ignores an index hit at or past its own key count (the slot of a
// descendant's key). Only later children copy, and only what they keep.
type Shape struct {
	root  *Shape   // the empty shape this tree grew from
	keys  []string // own keys in insertion order; slot i holds keys[i]
	attrs []attrs  // attrs[i]: slot i's kind and enumerability

	// index maps key → slot for shapes of more than smallShape keys, and
	// is shared down the chain of first transitions; smaller shapes scan
	// keys instead and keep no map.
	index map[string]int

	// first is the child reached by this shape's first transition; its
	// edge is its own last key and attributes. transitions holds the edges
	// added after it. The kind is part of the edge so accessor-bearing
	// objects never share a shape with data-shaped ones: the set-IC's
	// own-property fast path writes slots[slot] on a bare shape compare,
	// which is only sound if the compare also proves data-ness.
	// Enumerability is part of it because no slot carries it: Object.keys
	// and for-in read it from the shape.
	first       *Shape
	transitions map[shapeEdge]*Shape
}

// attrs is what a shape records of one key besides its name.
type attrs uint8

const (
	attrAccessor attrs = 1 << iota // the slot holds a getter/setter pair
	attrHidden                     // not enumerable: Object.keys and for-in skip it
)

// enumerable reports whether slot i's key is listed by Object.keys and for-in.
func (s *Shape) enumerable(i int) bool { return s.attrs[i]&attrHidden == 0 }

// smallShape is the most keys a shape looks up by scanning.
const smallShape = 8

// shapeEdge identifies a transition: the property name and its attributes.
type shapeEdge struct {
	key   string
	attrs attrs
}

// protoEpoch invalidates prototype-chain cache entries that shape identity
// alone cannot guard (see the package comment above). It is global rather
// than per-realm because Object mutators have no realm pointer; cross-realm
// bumps only cause spurious cache misses, never wrong results.
var protoEpoch atomic.Uint32

// bumpProtoEpoch invalidates every prototype-chain inline-cache entry.
func bumpProtoEpoch() { protoEpoch.Add(1) }

// newRoot returns a fresh empty shape, the root of its own tree.
func newRoot() *Shape {
	s := &Shape{}
	s.root = s
	return s
}

// emptyShapeFor returns the root shape for objects whose prototype is
// proto, creating and memoizing it on the prototype. A nil prototype gets a
// private root (no sharing, but Object.create(null) objects are rare).
func emptyShapeFor(proto *Object) *Shape {
	if proto == nil {
		return newRoot()
	}
	if proto.shapeRoot == nil {
		proto.shapeRoot = newRoot()
	}
	return proto.shapeRoot
}

// frozenRoot is the root of every frozen shape: a sentinel that marks the
// shape as shared by every realm, and so never to be written.
var frozenRoot = &Shape{}

// frozen reports whether s belongs to the builtin graph's shared trees.
func (s *Shape) frozen() bool { return s.root == frozenRoot }

// hostRoots are the builtin graph's shape roots: Object.prototype's own
// (it has no prototype), then the one under each of builtinProtos.
type hostRoots [9]*Shape

// hostShapes is the builtin graph's frozen shape trees, built once per
// process from a throwaway realm, as the snapshot codec builds its pristine
// twin. After the Once nothing writes them, so realms on any goroutine
// share them.
var hostShapes struct {
	once  sync.Once
	roots hostRoots
}

// hostShapeRoots returns the frozen roots every realm's setupGlobals
// follows.
func hostShapeRoots() *hostRoots {
	hostShapes.once.Do(func() {
		t := &Interp{Global: &Env{cells: make(map[string]*cell)}}
		hostShapes.roots = t.buildGlobals(nil)
		for _, r := range hostShapes.roots {
			freeze(r)
		}
	})
	return &hostShapes.roots
}

// freeze marks s and every shape below it frozen.
func freeze(s *Shape) {
	if s == nil {
		return
	}
	s.root = frozenRoot
	freeze(s.first)
	for _, c := range s.transitions {
		freeze(c)
	}
}

// transition returns the shape reached by adding key with the given
// attributes, creating and caching the edge on first use. The new key's slot
// is len(s.keys). A frozen shape is never written: where it has no such
// edge, transition returns nil, and the caller thaws the object first.
func (s *Shape) transition(key string, a attrs) *Shape {
	n := len(s.keys)
	e := shapeEdge{key, a}
	if f := s.first; f != nil {
		if f.keys[n] == key && f.attrs[n] == a {
			return f
		}
		if c, ok := s.transitions[e]; ok {
			return c
		}
	}
	if s.frozen() {
		return nil
	}
	c := &Shape{root: s.root}
	if s.first == nil {
		c.keys = append(s.keys, key)
		c.attrs = append(s.attrs, a)
		c.index = s.index
		s.first = c
	} else {
		c.keys = append(s.keys[:n:n], key)
		c.attrs = append(s.attrs[:n:n], a)
		if s.transitions == nil {
			s.transitions = make(map[shapeEdge]*Shape, 1)
		}
		s.transitions[e] = c
	}
	switch {
	case c.index != nil:
		c.index[key] = n
	case n >= smallShape:
		c.index = make(map[string]int, n+1)
		for i, k := range c.keys {
			c.index[k] = i
		}
	}
	return c
}

// rebuild returns the shape reached by replaying s's properties onto base,
// preserving each key's recorded attributes — the invariant every rebuild
// must uphold, since the set-IC's direct slot write trusts shape identity to
// prove data-ness, and Object.keys trusts it for enumerability. skip drops
// that slot's key (delete); at gives that slot's edge the attributes a
// (an in-place change of kind or enumerability); pass -1 for either to leave
// all slots as recorded.
func (s *Shape) rebuild(base *Shape, skip, at int, a attrs) *Shape {
	for j, k := range s.keys {
		if j == skip {
			continue
		}
		attr := s.attrs[j]
		if j == at {
			attr = a
		}
		base = base.transition(k, attr)
	}
	return base
}

// slotOf returns the slot index of key, or -1. It never writes the shape,
// so readers on other goroutines may share a realm nobody extends (the
// snapshot codec's pristine twin).
func (s *Shape) slotOf(key string) int {
	if s == nil {
		return -1
	}
	if s.index == nil {
		for i, k := range s.keys {
			if k == key {
				return i
			}
		}
		return -1
	}
	if i, ok := s.index[key]; ok && i < len(s.keys) {
		return i
	}
	return -1
}

// Inline-cache entries. The interpreter owns one table per access kind,
// indexed by the site IDs internal/resolve assigns to ast.Member and
// global ast.Ident nodes; site 0 is reserved for "no cache".

// getIC caches a property read site. holder == nil means the property was
// found on the receiver itself at slot; otherwise it was found on holder
// (somewhere up the prototype chain), guarded by holder's shape and by
// protoEpoch.
type getIC struct {
	shape  *Shape
	holder *Object
	hshape *Shape
	slot   int32
	epoch  uint32
}

// setIC caches a property write site. With next == nil the write hits an
// existing own property at slot. With next != nil the write adds a new
// property: the receiver moves from shape to next and the value is appended
// at slot; protoEpoch guards against an accessor appearing anywhere on the
// chain since the entry was filled.
type setIC struct {
	shape *Shape
	next  *Shape
	slot  int32
	epoch uint32
}

// ReserveSites sizes the inline-cache tables for a tree whose site numbering
// ended at s. Site IDs are dense per realm (internal/resolve numbers the
// compiled program from 1 and every later fragment from Sites), so the
// tables hold exactly one entry per site in the code this realm runs, plus
// the unused entry 0. Growth for a late fragment goes through append, so a
// guest that evals in a loop does not copy its tables once per call.
func (in *Interp) ReserveSites(s ast.Sites) {
	if s.Member > in.sites.Member {
		n := int(s.Member) + 1 - len(in.icGet)
		in.icGet = append(in.icGet, make([]getIC, n)...)
		in.icSet = append(in.icSet, make([]setIC, n)...)
		in.sites.Member = s.Member
	}
	if s.Global > in.sites.Global {
		in.icGlobal = append(in.icGlobal, make([]*cell, int(s.Global)+1-len(in.icGlobal))...)
		in.sites.Global = s.Global
	}
}

// Sites reports how far this realm's site numbering has got: the allocator
// state a fragment compiled for this realm must continue from.
func (in *Interp) Sites() ast.Sites { return in.sites }

// icGetAt returns the cache entry for a read site.
func (in *Interp) icGetAt(site uint32) *getIC { return &in.icGet[site] }

// icSetAt returns the cache entry for a write site.
func (in *Interp) icSetAt(site uint32) *setIC { return &in.icSet[site] }

// icCellAt returns the global-binding cell cached for an identifier site.
func (in *Interp) icCellAt(site uint32) *cell { return in.icGlobal[site] }

// lookupPath resolves key starting at o, returning the holding object and
// slot index, or (nil, -1) when the property exists nowhere on the chain.
// The walk marks every prototype it crosses (usedAsProto) so that inline-
// cache entries filled from its result — which guard on the receiver's and
// holder's shapes plus protoEpoch — stay sound when an object between the
// two later gains a shadowing property. The walk itself is deliberately
// uncached: realms are short-lived in the harness and a per-level shape
// lookup is one hash probe or a scan of at most smallShape keys, so the
// per-site caches (filled from this result) carry the repeat traffic.
func (in *Interp) lookupPath(o *Object, key string) (*Object, int) {
	o.ensureShape()
	for p := o; p != nil; p = p.Proto {
		if p != o {
			p.usedAsProto = true
		}
		if idx := p.ownOrLazySlot(key); idx >= 0 {
			return p, idx
		}
	}
	return nil, -1
}
