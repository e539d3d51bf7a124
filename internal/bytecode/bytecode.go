// Package bytecode lowers resolved AST functions to a flat instruction
// stream. It is the third coordinate-addressing pass of the interpreter
// substrate: PR 1 replaced by-name scope lookups with (hops, slot) Refs,
// PR 2 replaced by-name property lookups with shape-indexed inline-cache
// sites, and this package replaces the tree-walker's recursive switch
// dispatch with a linear fetch–execute loop over those same coordinates.
// Per-instruction dispatch is also the layer production engines instrument
// for dynamic analyses (cf. information-flow control in WebKit's JavaScript
// bytecode), which is what the ROADMAP's follow-on analyses want.
//
// The compiler is strictly an acceleration layer, never a semantic one: it
// consumes the exact tree the tree-walker would execute — after
// internal/resolve has annotated it — and lowers every function the pipeline
// can produce, whole. Program semantics are identical on either engine; the
// differential harness in internal/core enforces exactly that.
//
// The package knows nothing about the interpreter's runtime types: operand
// meanings are documented here, but execution — including the shared
// inline-cache arrays, engine cost charging, and environment frames — lives
// in internal/interp's dispatch loop.
package bytecode

import (
	"fmt"
	"slices"

	"repro/internal/ast"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Stack effects are written [before] → [after], top of stack on
// the right.
const (
	// OpNop does nothing (alignment/patching aid).
	OpNop Op = iota

	// --- constants and stack shuffling ---

	// OpConst pushes Consts[A].
	OpConst
	// OpUndef pushes undefined.
	OpUndef
	// OpNull pushes null.
	OpNull
	// OpTrue pushes true.
	OpTrue
	// OpFalse pushes false.
	OpFalse
	// OpPop discards the top of stack.
	OpPop
	// OpDup duplicates the top: [a] → [a a].
	OpDup
	// OpDup2 duplicates the top pair: [a b] → [a b a b].
	OpDup2
	// OpDupX1 inserts a copy of the top under the next: [a b] → [b a b].
	OpDupX1
	// OpDupX2 inserts a copy of the top under the next two:
	// [a b c] → [c a b c].
	OpDupX2

	// --- variables ---

	// OpGetLocal pushes slot A of the current frame.
	OpGetLocal
	// OpSetLocal pops into slot A of the current frame.
	OpSetLocal
	// OpGetRef pushes the value at packed Ref A (hops > 0).
	OpGetRef
	// OpSetRef pops into packed Ref A.
	OpSetRef
	// OpGetGlobal pushes the proved-global binding Names[B], caching the
	// global cell at inline-cache site A; ReferenceError when unbound.
	OpGetGlobal
	// OpSetGlobal pops into the proved-global binding Names[B] (site A),
	// creating an implicit global when unbound.
	OpSetGlobal
	// OpTypeofGlobal pushes typeof of the proved-global Names[B] (site A),
	// "undefined" when unbound.
	OpTypeofGlobal
	// OpIntrinsic pushes the runtime binding A (an ast.Intrinsic) from the
	// realm's table; ReferenceError in a realm with no runtime.
	OpIntrinsic
	// OpGetArguments, OpGetArg and OpArgsLen are every read a function makes
	// of its own `arguments` binding (packed Ref C: its frame's ArgumentsSlot,
	// as many hops out as catch clauses enclose the read). On entry the slot
	// holds the call's argument vector (interp.argsValue), not an object;
	// these read it in place and build the object — storing it back, so
	// identity holds — only when asked for it. Stores are plain stores.
	// OpGetArguments pushes the object, built now if the slot is still the
	// vector, or whatever the guest has since assigned.
	OpGetArguments
	// OpGetArg is arguments[idx], idx a literal or a variable: [idx] → [v].
	// A number index inside the vector loads the element; anything else —
	// past the end, where Object.prototype[i] shows, a non-number key, an
	// object already built — builds it if need be and reads as OpGetIndex.
	OpGetArg
	// OpArgsLen is arguments.length (name A, site B): the vector's length,
	// or OpGetMember on what the slot holds by now.
	OpArgsLen

	// --- objects and properties ---

	// OpClosure pushes a function object for Funcs[A] closed over the
	// current environment.
	OpClosure
	// OpArray pops A elements and pushes an array of them.
	OpArray
	// OpNewObject pushes a fresh plain object with room for A properties,
	// the literal's count.
	OpNewObject
	// OpSetProp pops a value and defines it as own property Names[A] of
	// the object left on top: [obj v] → [obj].
	OpSetProp
	// OpSetAccessor installs Accessors[A] (an object-literal getter or
	// setter) on the object on top of the stack: [obj] → [obj].
	OpSetAccessor
	// OpGetMember pops the base and pushes base[Names[A]] through
	// inline-cache site B.
	OpGetMember
	// OpSetMember pops the base then a value and writes
	// base[Names[A]] = value through site B: [v base] → [].
	OpSetMember
	// OpSetMemberKeep pops a value then the base, writes through site B,
	// and pushes the value back: [base v] → [v]. Compound assignments and
	// updates, which evaluate the base before the value, use it.
	OpSetMemberKeep
	// OpGetMethod pops the base and pushes the base back followed by
	// base[Names[A]] (site B) — the receiver/callee pair of a method call:
	// [base] → [base fn].
	OpGetMethod
	// OpGetMethodIndex is OpGetMethod for computed keys:
	// [base idx] → [base fn].
	OpGetMethodIndex
	// OpGetIndex pops an index then the base and pushes base[index].
	OpGetIndex
	// OpSetIndex writes an indexed element: [v base idx] → [].
	OpSetIndex
	// OpSetIndexKeep writes an indexed element keeping the value:
	// [base idx v] → [v].
	OpSetIndexKeep
	// OpToPropKey stringifies an object index eagerly (ToPrimitive may run
	// user code, and compound references must run it exactly once);
	// primitive indexes pass through untouched.
	OpToPropKey
	// OpDeleteMember pops the base and deletes base[Names[A]], pushing
	// true.
	OpDeleteMember
	// OpDeleteIndex pops an index then the base, deletes base[index], and
	// pushes true.
	OpDeleteIndex

	// --- calls ---

	// OpCall calls a function with A arguments: [this fn a1..aA] → [ret].
	OpCall
	// OpNew constructs with A arguments: [fn a1..aA] → [ret].
	OpNew
	// OpReturn pops the return value and leaves the function.
	OpReturn
	// OpReturnUndef leaves the function returning undefined.
	OpReturnUndef

	// --- control flow ---

	// OpJump continues at pc A.
	OpJump
	// OpJumpIfFalse pops a value and jumps to A when it is falsy.
	OpJumpIfFalse
	// OpJumpIfTrue pops a value and jumps to A when it is truthy.
	OpJumpIfTrue
	// OpJumpIfFalsyKeep jumps to A keeping the value when falsy, else pops
	// (the && operator).
	OpJumpIfFalsyKeep
	// OpJumpIfTruthyKeep jumps to A keeping the value when truthy, else
	// pops (the || operator).
	OpJumpIfTruthyKeep

	// --- operators ---

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpStrictEq
	OpStrictNe
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpUshr
	OpInstanceof
	OpIn
	OpNot
	OpNeg
	OpToNumber
	OpBitNot
	OpVoid
	OpTypeofVal

	// --- statements, exceptions, iteration ---

	// OpStmt marks A consecutive statement boundaries with no code between
	// them: A interpreter steps, A work units, and the step-budget check —
	// the bytecode engine's per-statement accounting must match the
	// tree-walker's. B != 0 additionally charges BranchCost (the statement
	// is an if whose test runs next).
	OpStmt
	// OpChargeBranch charges the engine's BranchCost (an if statement's
	// test is about to run).
	OpChargeBranch
	// OpThrow pops a value and raises it as an exception.
	OpThrow
	// OpTry enters a try statement, pushing one handler: a throw lands at
	// the catch body, pc A, with the thrown value pushed (A < 0: no catch),
	// and a throw the catch body does not take or itself raises lands at the
	// finally block, pc B, with the throw pending (B < 0: no finally).
	// Charges TryCost.
	OpTry
	// OpPopTry leaves a try statement that has no finally block.
	OpPopTry
	// OpEnterFinally leaves a try statement's guarded region for its
	// finally block at pc A: it pops the statement's handler, resets the
	// operand stack and environment to the handler's record, and pushes the
	// pending completion in two slots — the return value in flight (the top
	// of stack when C != 0, else undefined), then the pc B to resume at.
	OpEnterFinally
	// OpEndFinally pops the pending completion's second slot and takes the
	// completion up: a pc resumes there, and the code at that pc disposes of
	// the first slot; the unwinder's mark for a pending throw raises the
	// first slot again (no second ThrowCost).
	OpEndFinally
	// OpEnterCatch pops the thrown value into slot 0 of a fresh catch
	// frame laid out by Scopes[A]; the frame becomes current.
	OpEnterCatch
	// OpLeaveScope pops the current catch frame.
	OpLeaveScope
	// OpForInInit pops a value and pushes a property-name iterator over it
	// (empty for non-objects).
	OpForInInit
	// OpForInNext pushes the iterator's next key, or jumps to A when
	// exhausted (the iterator stays on the stack; the code at A pops it).
	OpForInNext

	// --- fused instructions ---
	//
	// Superinstructions for the sequences instrumented code executes on
	// every mode-dispatch guard and call site; each replaces two
	// to three plain instructions with one dispatch. The compiler emits
	// them from AST shape alone, so they change no semantics.

	// OpModeEq pushes whether the realm's mode is A (an ast.Mode) — the
	// `$mode === "..."` guard at the top of every instrumented function and
	// loop, $mode the intrinsic.
	OpModeEq
	// OpJumpModeNe jumps to A unless the realm's mode is B — the complete
	// `if ($mode === "...")` guard in one dispatch.
	OpJumpModeNe
	// OpStrictEqConst pushes stack-top === Consts[A] (replacing
	// OpConst+OpStrictEq).
	OpStrictEqConst
	// OpGlobalEqConst pushes <global Names[B], site A> === Consts[C].
	OpGlobalEqConst
	// OpGetLocalMember pushes slot A's member Names[B] through site C.
	OpGetLocalMember
	// OpGetLocalMethod pushes slot A and its member Names[B] (site C) —
	// the receiver/callee pair of a method call on a local.
	OpGetLocalMethod
	// OpCalleeGlobal pushes undefined (the `this` of a plain call) and
	// the proved-global Names[B] (site A).
	OpCalleeGlobal
	// OpCalleeLocal pushes undefined and slot A.
	OpCalleeLocal
	// OpCalleeIntrinsic pushes undefined and the runtime binding A, as
	// OpIntrinsic does.
	OpCalleeIntrinsic
	// OpCall0Global calls the proved-global Names[B] (site A) with no
	// arguments and undefined `this`, pushing the result — the shape of
	// every `$suspend()` yield probe.
	OpCall0Global
	// OpCall0Local calls slot A with no arguments and undefined `this`,
	// pushing the result.
	OpCall0Local
	// OpConstSetLocal stores Consts[A] into slot B.
	OpConstSetLocal
	// OpClosureSetLocal stores a closure of Funcs[A] into slot B.
	OpClosureSetLocal
	// OpSetLocalStmt stores into slot A, then marks B statement
	// boundaries (C != 0 adds the BranchCost charge) — the ubiquitous
	// assignment-then-next-statement sequence.
	OpSetLocalStmt
	// OpJumpIfFalseStmt pops a value and jumps to A when falsy; on the
	// fall-through path it marks B statement boundaries (C != 0 adds
	// BranchCost).
	OpJumpIfFalseStmt
	// OpStmtGetLocal marks B statement boundaries (C != 0 adds
	// BranchCost), then pushes slot A.
	OpStmtGetLocal
	// OpStmtConst marks B statement boundaries (C != 0 adds BranchCost),
	// then pushes Consts[A].
	OpStmtConst

	// --- fused call sites ---
	//
	// A checked call site (instrument.site, marked ast.If.Site) is lowered
	// exactly as any if statement, with these around it for normal mode.
	// Sites[A] holds what they read. Each takes its shortcut only when the
	// realm is in normal mode, has no engine profile, and no
	// statement-boundary trigger falls inside the statements it counts;
	// otherwise it does nothing and the generic code runs, so both paths count
	// the same statements (DESIGN_interp.md "Fused call sites and the yield
	// poll").

	// OpSitePoll, before OpSiteEnter at a `$suspend()` site, skips the whole
	// site when the call would return at once: no pause or kill is requested,
	// and the runtime's poll budget is positive. It counts the site's four
	// remaining boundaries, stores undefined into the target and -1 into
	// $lbl, and exits.
	OpSitePoll
	// OpSiteHelper, before OpSiteEnter at a site whose application is a call
	// of a prelude helper ($add, $get, ...) on slots and literals, answers the
	// whole site when the engine answers the call (interp.callHelper): the
	// callee's binding holds the closure marked as that helper, and a $get or
	// $set key is not an object. It stores the answer into the target and -1
	// into $lbl, counts the site's four remaining boundaries and exits; an
	// answer that is a throw counts the two boundaries before the call and
	// raises it.
	OpSiteHelper
	// OpSiteEnter, right after the site's own boundary, counts the block and
	// assignment boundaries and jumps to the application's code.
	OpSiteEnter
	// OpSiteLeave ends the application arm of the site's conditional: the
	// value on top goes into the target, the capture-test and label-reset
	// boundaries are counted, -1 is stored into $lbl and the site exits.
	// Otherwise it jumps to B, the join, as the plain jump it replaces did.
	OpSiteLeave

	// --- frame instructions ---
	//
	// Each stands ahead of the plain lowering of the frame protocol the
	// instrumentation marked (ast.Member.Frame, ast.If.Restore). When the
	// realm has the runtime's frame arrays (interp.Poll) and what it reads
	// has the instrumentation's layout, it does that code's work
	// without reading a method a guest may have replaced, charges and counts
	// what the code does and jumps past it, to B; otherwise it does nothing
	// (DESIGN_interp.md "Frames").

	// OpPushFrame appends the frame Frames[A] and pushes the array's length.
	OpPushFrame
	// OpPopFrame pops the runtime's array A (an ast.Intrinsic) and pushes
	// what it took off.
	OpPopFrame
	// OpReenter calls the fn of the frame in $k (a packed Ref in A) with its
	// self, and its args when C is 1, as Function.prototype.apply would, and
	// pushes the result.
	OpReenter
	// OpRestoreFrame runs a prologue's restore block, Restores[A], in one
	// step when the realm has no engine profile, no statement-boundary trigger
	// falls inside the block's Steps, and the frame on top of $rstack is an
	// array holding every element the block reads.
	OpRestoreFrame
)

// Global is a proved-global reference: its Names index and global-cell cache
// site.
type Global struct{ Name, Site int32 }

// Frame is one frame push, `<Array>.push([Label, Fn, Self, Elems…])`:
// OpPushFrame's operands. Array is the runtime's array pushed to; Fn is
// ast.RefGlobal for the global FnGlobal; Elems are the varargs arguments
// object, if any, and the saved locals.
type Frame struct {
	Array    ast.Intrinsic
	FnGlobal Global
	Label    int32
	Fn, Self ast.Ref
	Elems    []ast.Ref
}

// Restore is one prologue restore block: OpRestoreFrame's operands, the
// current frame's slots it writes ($k, $lbl, then the locals, read from the
// frame's elements from Base on) and the statement boundaries it counts.
type Restore struct {
	Array        ast.Intrinsic // $rstack
	K, Lbl, Base int32
	Steps        uint32
	Locals       []int32
}

// Site is one fused call site: the operands OpSitePoll, OpSiteHelper,
// OpSiteEnter and OpSiteLeave share.
type Site struct {
	Target int32 // local slot the application's value is stored in
	Label  int32 // local slot of $lbl
	Body   int32 // pc of the application's code
	Exit   int32 // pc after the site

	// OpSiteHelper's operands: the helper the callee is (NoIntrinsic: the
	// instruction is not emitted) and NArgs arguments, each a local slot or,
	// complemented (^i < 0), Consts[i].
	Helper ast.Intrinsic
	NArgs  uint8
	Args   [3]int32
}

// Statement boundaries a fused site counts around its application: the block
// and the assignment before it, the capture test and the label reset after.
const (
	SiteEnterSteps = 2
	SiteLeaveSteps = 2
)

// Instr is one instruction. A, B, and C are opcode-specific operands: pc
// targets, constant/name/function indexes, packed Refs, inline-cache sites,
// or argument counts.
type Instr struct {
	Op      Op
	A, B, C int32
}

// ConstKind discriminates a compiler constant's payload.
type ConstKind uint8

// Constant kinds. Undefined and null have dedicated opcodes (OpUndef,
// OpNull), so they normally never reach the pool; the kinds exist so a
// Const zero value is still well-formed.
const (
	ConstUndefined ConstKind = iota
	ConstNull
	ConstBool
	ConstNumber
	ConstString
)

// Const is one constant-pool entry: a typed literal with no boxed
// representation, so the execution engine can convert the pool to its own
// value representation once per chunk instead of re-boxing per fetch.
// Bool payloads ride in Num (0/1). The struct is comparable, which the
// compiler's dedup map relies on.
type Const struct {
	Kind ConstKind
	Num  float64
	Str  string
}

// NumberConst builds a number constant.
func NumberConst(f float64) Const { return Const{Kind: ConstNumber, Num: f} }

// StringConst builds a string constant.
func StringConst(s string) Const { return Const{Kind: ConstString, Str: s} }

// BoolConst builds a boolean constant.
func BoolConst(b bool) Const {
	if b {
		return Const{Kind: ConstBool, Num: 1}
	}
	return Const{Kind: ConstBool}
}

// display renders a constant for disassembly.
func (c Const) display() string {
	switch c.Kind {
	case ConstNumber:
		return fmt.Sprintf("%v", c.Num)
	case ConstString:
		return fmt.Sprintf("%q", c.Str)
	case ConstBool:
		if c.Num != 0 {
			return "true"
		}
		return "false"
	case ConstNull:
		return "null"
	}
	return "undefined"
}

// Accessor describes one getter or setter of an object literal.
type Accessor struct {
	Name   int32 // Names index of the property key
	Fn     int32 // Funcs index of the accessor function literal
	Setter bool
}

// Chunk is the compiled form of one function body. The caller-side frame
// protocol (parameter slots, this/new.target/arguments, hoisted function
// declarations) is unchanged from the tree-walker: internal/interp sets up
// the environment exactly as before and then either walks the tree or runs
// the chunk.
type Chunk struct {
	Code []Instr

	Consts    []Const          // typed literal constants
	Names     []string         // property and global names
	Funcs     []*ast.Func      // nested function literals, OpClosure operands
	Scopes    []*ast.ScopeInfo // catch-clause frame layouts
	Accessors []Accessor       // object-literal accessor properties

	// MaxStack is the exact operand-stack high-water mark; the dispatch
	// loop carves a window of this size from its stack arena.
	MaxStack int
	// MaxTries is the handler high-water mark: try statements nested
	// around one point.
	MaxTries int

	// Sites are the fused call sites, indexed by their instructions' A; the
	// frame instructions' operands likewise.
	Sites    []Site
	Frames   []Frame
	Restores []Restore
}

// Restored reports whether one of the chunk's restore blocks writes slot.
// The restore block is the first code an entry in restore mode runs, and it
// writes its slots before anything reads them, or throws.
func (ch *Chunk) Restored(slot int) bool {
	return slices.ContainsFunc(ch.Restores, func(r Restore) bool { return slices.Contains(r.Locals, int32(slot)) })
}

// opNames is the disassembly table.
var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpUndef: "undef", OpNull: "null",
	OpTrue: "true", OpFalse: "false", OpPop: "pop", OpDup: "dup",
	OpDup2: "dup2", OpDupX1: "dupx1", OpDupX2: "dupx2",
	OpGetLocal: "getlocal", OpSetLocal: "setlocal",
	OpGetRef: "getref", OpSetRef: "setref", OpGetGlobal: "getglobal",
	OpSetGlobal: "setglobal", OpTypeofGlobal: "typeofglobal", OpIntrinsic: "intrinsic",
	OpGetArguments: "getarguments", OpGetArg: "getarg", OpArgsLen: "argslen",
	OpClosure: "closure", OpArray: "array", OpNewObject: "newobject",
	OpSetProp: "setprop", OpSetAccessor: "setaccessor",
	OpGetMember: "getmember", OpSetMember: "setmember",
	OpSetMemberKeep: "setmemberkeep", OpGetMethod: "getmethod",
	OpGetIndex: "getindex", OpSetIndex: "setindex",
	OpSetIndexKeep: "setindexkeep", OpToPropKey: "topropkey",
	OpGetMethodIndex: "getmethodindex",
	OpDeleteMember:   "delmember", OpDeleteIndex: "delindex",
	OpCall: "call", OpNew: "new", OpReturn: "return",
	OpReturnUndef: "returnundef", OpJump: "jump",
	OpJumpIfFalse: "jumpfalse", OpJumpIfTrue: "jumptrue",
	OpJumpIfFalsyKeep: "jumpfalsykeep", OpJumpIfTruthyKeep: "jumptruthykeep",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpPow: "pow", OpLt: "lt", OpGt: "gt", OpLe: "le", OpGe: "ge",
	OpEq: "eq", OpNe: "ne", OpStrictEq: "stricteq", OpStrictNe: "strictne",
	OpBitAnd: "band", OpBitOr: "bor", OpBitXor: "bxor", OpShl: "shl",
	OpShr: "shr", OpUshr: "ushr", OpInstanceof: "instanceof", OpIn: "in",
	OpNot: "not", OpNeg: "neg", OpToNumber: "tonumber", OpBitNot: "bitnot",
	OpVoid: "void", OpTypeofVal: "typeofval", OpStmt: "stmt",
	OpChargeBranch: "chargebranch", OpThrow: "throw", OpTry: "try",
	OpPopTry: "poptry", OpEnterCatch: "entercatch",
	OpLeaveScope: "leavescope", OpForInInit: "forininit",
	OpForInNext: "forinnext", OpEnterFinally: "enterfinally",
	OpEndFinally: "endfinally",
	OpModeEq:     "modeeq", OpJumpModeNe: "jumpmodene",
	OpStrictEqConst: "stricteqconst", OpGlobalEqConst: "globaleqconst",
	OpGetLocalMember: "getlocalmember", OpGetLocalMethod: "getlocalmethod",
	OpCalleeGlobal: "calleeglobal", OpCalleeLocal: "calleelocal", OpCalleeIntrinsic: "calleeintrinsic",
	OpCall0Global: "call0global", OpCall0Local: "call0local",
	OpConstSetLocal:   "constsetlocal",
	OpClosureSetLocal: "closuresetlocal", OpSetLocalStmt: "setlocalstmt",
	OpJumpIfFalseStmt: "jumpfalsestmt", OpStmtGetLocal: "stmtgetlocal",
	OpStmtConst: "stmtconst", OpSitePoll: "sitepoll", OpSiteHelper: "sitehelper", OpSiteEnter: "siteenter",
	OpSiteLeave: "siteleave", OpPushFrame: "pushframe", OpPopFrame: "popframe",
	OpReenter: "reenter", OpRestoreFrame: "restoreframe",
}

// String returns the opcode's mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Disassemble renders the chunk as one instruction per line, for tests and
// debugging.
func (c *Chunk) Disassemble() string {
	var b []byte
	for pc, ins := range c.Code {
		b = append(b, fmt.Sprintf("%4d  %-14s", pc, ins.Op)...)
		switch ins.Op {
		case OpConst:
			b = append(b, " "+c.Consts[ins.A].display()...)
		case OpGetMember, OpSetMember, OpSetMemberKeep, OpGetMethod,
			OpDeleteMember, OpSetProp:
			b = append(b, fmt.Sprintf(" %q", c.Names[ins.A])...)
		case OpGetGlobal, OpSetGlobal, OpTypeofGlobal, OpCalleeGlobal, OpCall0Global:
			b = append(b, fmt.Sprintf(" %q", c.Names[ins.B])...)
		case OpStrictEqConst:
			b = append(b, " "+c.Consts[ins.A].display()...)
		case OpIntrinsic, OpCalleeIntrinsic:
			b = append(b, " "+ast.IntrinsicNames[ins.A]...)
		case OpModeEq:
			b = append(b, " "+ast.ModeNames[ins.A]...)
		case OpJumpModeNe:
			b = append(b, fmt.Sprintf(" %s %d", ast.ModeNames[ins.B], ins.A)...)
		case OpGlobalEqConst:
			b = append(b, fmt.Sprintf(" %q %s", c.Names[ins.B], c.Consts[ins.C].display())...)
		case OpGetLocalMember, OpGetLocalMethod:
			b = append(b, fmt.Sprintf(" %d %q", ins.A, c.Names[ins.B])...)
		case OpGetLocal, OpSetLocal, OpCall, OpNew, OpArray, OpClosure,
			OpJump, OpJumpIfFalse, OpJumpIfTrue, OpJumpIfFalsyKeep,
			OpJumpIfTruthyKeep, OpForInNext, OpEnterCatch, OpSetAccessor:
			b = append(b, fmt.Sprintf(" %d", ins.A)...)
		case OpTry, OpEnterFinally:
			b = append(b, fmt.Sprintf(" %d %d", ins.A, ins.B)...)
		case OpGetRef, OpSetRef:
			r := ast.Ref(uint32(ins.A))
			b = append(b, fmt.Sprintf(" (%d,%d)", r.Hops(), r.Slot())...)
		case OpGetArguments, OpGetArg, OpArgsLen:
			r := ast.Ref(uint32(ins.C))
			b = append(b, fmt.Sprintf(" (%d,%d)", r.Hops(), r.Slot())...)
		case OpSitePoll, OpSiteHelper, OpSiteEnter, OpSiteLeave:
			s := c.Sites[ins.A]
			if ins.Op == OpSiteHelper {
				b = append(b, " "+ast.IntrinsicNames[s.Helper]...)
			}
			b = append(b, fmt.Sprintf(" body %d exit %d", s.Body, s.Exit)...)
			if ins.Op == OpSiteLeave {
				b = append(b, fmt.Sprintf(" join %d", ins.B)...)
			}
		case OpPushFrame, OpPopFrame, OpReenter, OpRestoreFrame:
			b = append(b, fmt.Sprintf(" %d exit %d", ins.A, ins.B)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
