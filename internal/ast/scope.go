package ast

// This file holds the static-scope annotations written by internal/resolve
// and read by the engines: packed (hops, slot) coordinates on identifier
// references and per-function frame layouts. Every tree an engine runs went
// through the resolver — a function without a layout does not run — so a
// frame is the global frame or a slot frame laid out here.

// Ref is a resolved variable coordinate: the number of environment frames to
// hop outward, and the slot index within the target frame. It is packed into
// a uint32 — bits 16..31 hold hops, bits 0..15 hold slot+1 — so that the
// zero Ref means "not resolved".
type Ref uint32

// RefGlobal marks a reference the resolver proved unbound in every
// enclosing static scope. Only the global frame, whose names are created at
// run time, can supply it, so the interpreter goes straight there. With an
// intrinsic index in the low bits (RefGlobal|k, intrinsic.go) it marks a
// runtime reference instead, which no frame supplies.
const RefGlobal Ref = 1 << 31

// The packing's range: a reference reaches at most MaxHops frames out (hops
// is capped below bit 31 so no coordinate collides with RefGlobal) and at
// most MaxSlot into a frame.
const (
	MaxHops = 0x7fff
	MaxSlot = 0xfffe
)

// MakeRef packs a coordinate. ok is false when hops or slot exceed the
// packing range; the resolver refuses such a program (there is no other kind
// of reference than a coordinate or a global).
func MakeRef(hops, slot int) (Ref, bool) {
	if hops < 0 || hops > MaxHops || slot < 0 || slot > MaxSlot {
		return 0, false
	}
	return Ref(uint32(hops)<<16 | uint32(slot) + 1), true
}

// Valid reports whether the reference names a (hops, slot) coordinate.
func (r Ref) Valid() bool { return r != 0 && r&RefGlobal == 0 }

// Global reports whether the reference was proved to bypass all static
// scopes.
func (r Ref) Global() bool { return r == RefGlobal }

// Intrinsic is the runtime binding the reference is marked with, or
// NoIntrinsic.
func (n *Ident) Intrinsic() Intrinsic {
	if n.Ref&RefGlobal == 0 {
		return NoIntrinsic
	}
	return Intrinsic(n.Ref &^ RefGlobal)
}

// Hops returns the number of parent-frame hops.
func (r Ref) Hops() int { return int(r >> 16) }

// Slot returns the slot index within the target frame.
func (r Ref) Slot() int { return int(r&0xffff) - 1 }

// ScopeInfo is the slot layout of one frame, computed statically. Slot i of
// the frame binds Names[i]; the remaining fields tell the interpreter where
// to store the implicit bindings it materializes on function entry. A slot
// of -1 means the binding does not exist in this frame (arrow functions) or
// is never referenced and need not be materialized (ArgumentsSlot).
type ScopeInfo struct {
	Names []string

	// ParamSlots maps parameter position to frame slot.
	ParamSlots []int

	// SelfSlot binds Func.Self, the name the body calls the function
	// itself by; -1 when it binds none, as a declaration does not.
	SelfSlot int

	ThisSlot      int
	NewTargetSlot int

	// ArgumentsSlot is -1 when the function body never references
	// `arguments`, which lets the interpreter skip building the arguments
	// object entirely.
	ArgumentsSlot int

	// FnDecls lists hoisted function declarations and the slots their
	// function objects are stored into on entry, in source order.
	FnDecls []FnSlot
}

// FnSlot pairs a hoisted function declaration with its frame slot.
type FnSlot struct {
	Fn   *Func
	Slot int
}

// Hoisted calls fn for every var name (decl nil; for-in declarations
// included) and every function declaration of one function body, in source
// order and without descending into nested functions — JavaScript's
// var/function hoisting rule. It is the one hoisting scan: the resolver, the
// interpreter's global-frame hoisting and every compile pass that asks what a
// scope binds go through it, so their scope models cannot drift.
func Hoisted(body []Stmt, fn func(name string, decl *Func)) {
	visit := func(n Node) bool {
		switch n := n.(type) {
		case Expr:
			return false // a function expression's declarations are its own
		case *VarDecl:
			for i := range n.Decls {
				fn(n.Decls[i].Name, nil)
			}
		case *FuncDecl:
			fn(n.Fn.Name, n.Fn)
		case *ForIn:
			if n.Decl {
				fn(n.Name, nil)
			}
		}
		return true
	}
	for _, s := range body {
		Walk(s, visit)
	}
}

// HoistedDecls is Hoisted as two lists, the shape a frame layout is built
// from: var names, then function declarations, each in source order.
func HoistedDecls(body []Stmt) (vars []string, fns []*Func) {
	Hoisted(body, func(name string, decl *Func) {
		if decl == nil {
			vars = append(vars, name)
		} else {
			fns = append(fns, decl)
		}
	})
	return vars, fns
}

// DeclaredNames is Hoisted as one list: vars and function names interleaved
// as the source has them, which is the order instrumented code saves and
// restores a frame's locals in.
func DeclaredNames(body []Stmt) (names []string) {
	Hoisted(body, func(name string, _ *Func) { names = append(names, name) })
	return names
}
