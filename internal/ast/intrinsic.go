package ast

import "slices"

// Intrinsic names a binding of the Stopify runtime that instrumented code
// reads: the execution mode, the three frame stacks, the runtime's natives
// and the prelude's functions. No guest binding can stand in for one. A
// compile pass builds the reference with Intrinsic.Id, which marks the Ident
// (its Ref is RefGlobal|k before internal/resolve runs); the resolver leaves
// a marked reference as it is, with no scope walk and no global cache site,
// and the engines read it from the realm (interp.Poll's table, Interp.Mode).
// The printer prints the name, so compiled source reads as it always has.
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
	// The natives the $get and $set bodies are written in: accessor lookup
	// without invocation, accessor-free read and write.
	IntrinsicLookupGetter
	IntrinsicLookupSetter
	IntrinsicRawGet
	IntrinsicRawSet
	// The prelude's functions, which hoisting puts in the table (Func.Intrinsic):
	// $construct, then the helpers (IsHelper).
	IntrinsicConstruct
	IntrinsicToPrim
	IntrinsicEq
	IntrinsicAdd
	IntrinsicSub
	IntrinsicMul
	IntrinsicDiv
	IntrinsicMod
	IntrinsicLt
	IntrinsicLe
	IntrinsicGt
	IntrinsicGe
	IntrinsicNe
	IntrinsicNeg
	IntrinsicToNum
	IntrinsicGet
	IntrinsicSet
	NumIntrinsics
)

// IntrinsicNames is each intrinsic's name in compiled source, by index.
var IntrinsicNames = [NumIntrinsics]string{"", "$mode", "$stack", "$rstack", "$shadow", "$suspend", "$bp",
	"$isSig", "$isCap", "$boundFn", "$boundArgs", "$create", "$forInKeys",
	"$lookupGetter", "$lookupSetter", "$rawGet", "$rawSet", "$construct", "$toPrim", "$eq",
	"$add", "$sub", "$mul", "$div", "$mod", "$lt", "$le", "$gt", "$ge", "$ne", "$neg", "$tonum", "$get", "$set"}

// IntrinsicNamed is the intrinsic spelled name, or NoIntrinsic.
func IntrinsicNamed(name string) Intrinsic {
	return Intrinsic(max(0, slices.Index(IntrinsicNames[:], name)))
}

// IsHelper reports whether k is a prelude helper: a function whose call the
// engine may answer itself (interp/helpers.go).
func (k Intrinsic) IsHelper() bool { return k >= IntrinsicToPrim }

// Id returns a marked reference to k.
func (k Intrinsic) Id() *Ident { return &Ident{Name: IntrinsicNames[k], Ref: RefGlobal | Ref(k)} }

// MarkIntrinsics marks every reference in n that is spelled as an
// intrinsic, as Id would have built it, and every function declared under
// such a name as the one hoisting puts in the table: for runtime code parsed
// from source (the prelude), which binds those names only so.
func MarkIntrinsics(n Node) {
	Walk(n, func(n Node) bool {
		switch n := n.(type) {
		case *Ident:
			if k := IntrinsicNamed(n.Name); k != NoIntrinsic {
				n.Ref = RefGlobal | Ref(k)
			}
		case *FuncDecl:
			n.Fn.Intrinsic = IntrinsicNamed(n.Fn.Name)
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
