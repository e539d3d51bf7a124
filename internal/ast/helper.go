package ast

import "slices"

// Helper names a function or native of the runtime prelude whose call the
// engine may answer itself (interp/helpers.go). A Func is marked where the
// prelude is compiled and nowhere else: a guest's `function $add(){}` is not.
type Helper uint8

// The first six are the globals helpers' bodies call by name (interp.helperIntact).
const (
	NoHelper Helper = iota
	HelperToPrim
	HelperEq
	HelperLookupGetter
	HelperLookupSetter
	HelperRawGet
	HelperRawSet
	HelperAdd
	HelperSub
	HelperMul
	HelperDiv
	HelperMod
	HelperLt
	HelperLe
	HelperGt
	HelperGe
	HelperNe
	HelperNeg
	HelperToNum
	HelperGet
	HelperSet
	NumHelpers
)

// HelperNames is each helper's global name, by mark.
var HelperNames = [NumHelpers]string{"", "$toPrim", "$eq", "$lookupGetter", "$lookupSetter", "$rawGet", "$rawSet",
	"$add", "$sub", "$mul", "$div", "$mod", "$lt", "$le", "$gt", "$ge", "$ne", "$neg", "$tonum", "$get", "$set"}

// HelperNamed is the mark of the helper called name, or NoHelper.
func HelperNamed(name string) Helper { return Helper(max(0, slices.Index(HelperNames[:], name))) }
