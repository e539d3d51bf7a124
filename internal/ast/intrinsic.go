package ast

import "slices"

// Intrinsic names a binding of the Stopify runtime that instrumented code
// reads: the execution mode, the three frame stacks and the runtime's
// natives. No guest binding can stand in for one. A compile pass builds the
// reference with Intrinsic.Id, which marks the Ident (its Ref is
// RefGlobal|k before internal/resolve runs); the resolver leaves a marked
// reference as it is, with no scope walk and no global cache site, and the
// engines read it from the realm (interp.Poll's table, Interp.Mode). The
// printer prints the name, so compiled source reads as it always has.
type Intrinsic uint8

const (
	NoIntrinsic Intrinsic = iota
	IntrinsicMode
	IntrinsicStack
	IntrinsicRStack
	IntrinsicShadow
	IntrinsicSuspend
	IntrinsicBp
	IntrinsicIsSig
	IntrinsicIsCap
	IntrinsicBoundFn
	IntrinsicBoundArgs
	IntrinsicCreate
	IntrinsicForInKeys
	NumIntrinsics
)

// IntrinsicNames is each intrinsic's name in compiled source, by index.
var IntrinsicNames = [NumIntrinsics]string{"", "$mode", "$stack", "$rstack", "$shadow", "$suspend", "$bp",
	"$isSig", "$isCap", "$boundFn", "$boundArgs", "$create", "$forInKeys"}

// IntrinsicNamed is the intrinsic spelled name, or NoIntrinsic.
func IntrinsicNamed(name string) Intrinsic {
	return Intrinsic(max(0, slices.Index(IntrinsicNames[:], name)))
}

// Id returns a marked reference to k.
func (k Intrinsic) Id() *Ident { return &Ident{Name: IntrinsicNames[k], Ref: RefGlobal | Ref(k)} }

// MarkIntrinsics marks every reference in n that is spelled as an
// intrinsic, as Id would have built it: for runtime code parsed from source
// (the prelude), which binds none of those names itself.
func MarkIntrinsics(n Node) {
	Walk(n, func(n Node) bool {
		if id, ok := n.(*Ident); ok {
			if k := IntrinsicNamed(id.Name); k != NoIntrinsic {
				id.Ref = RefGlobal | Ref(k)
			}
		}
		return true
	})
}

// Call builds a call of k.
func (k Intrinsic) Call(args ...Expr) *Call { return CallN(k.Id(), args...) }

// Mode is the runtime's execution mode (§3.1), what `$mode` reads.
type Mode uint8

const (
	ModeNormal Mode = iota
	ModeCapture
	ModeRestore
)

// ModeNames is each mode's value in compiled source, by mode.
var ModeNames = [...]string{"normal", "capture", "restore"}

// ModeNamed is the mode whose value is s.
func ModeNamed(s string) (Mode, bool) {
	i := slices.Index(ModeNames[:], s)
	return Mode(max(0, i)), i >= 0
}
