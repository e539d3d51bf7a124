package bytecode

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ast"
)

// Compile lowers a function body to a chunk. fn went through internal/resolve
// (interp.Call turns a function that did not into a host error before asking
// for its chunk), so every reference has a coordinate or is proved global, and
// the parser checked every break, continue and return for a target. Compile
// is total over what the pipeline produces: a node kind or operator it does
// not know is an engine bug, and it panics naming the type. A chunk never
// re-enters the tree-walker.
//
// The compiler mirrors the tree-walker statement by statement: evaluation
// order, engine cost charges, and step counting are reproduced exactly, so
// the two engines are observationally identical — the property the
// differential harness in internal/core checks.
func Compile(fn *ast.Func) *Chunk {
	c := compilers.Get().(*compiler)
	ch := &Chunk{Code: c.code, Consts: c.consts, Names: c.names, Sites: c.sites, Frames: c.frames, Restores: c.restores}
	c.ch = ch
	c.argsSlot = fn.Scope.ArgumentsSlot
	for _, s := range fn.Body {
		c.stmt(s)
	}
	c.emit(OpReturnUndef, 0, 0)
	ch.MaxStack = c.maxSP

	// The chunk keeps exact-size copies; the grown buffers and the emptied
	// indexes go back for the next function, holding nothing of this one.
	code, consts, names, sites := ch.Code, ch.Consts, ch.Names, ch.Sites
	ch.Code = append([]Instr(nil), code...)
	ch.Consts = append([]Const(nil), consts...)
	ch.Names = append([]string(nil), names...)
	ch.Sites = append([]Site(nil), sites...)
	frames, restores := ch.Frames, ch.Restores
	ch.Frames = append([]Frame(nil), frames...)
	ch.Restores = append([]Restore(nil), restores...)
	clear(consts)
	clear(names)
	clear(frames)
	clear(restores)
	clear(c.nameIdx)
	clear(c.constIdx)
	*c = compiler{code: code[:0], consts: consts[:0], names: names[:0], sites: sites[:0], frames: frames[:0], restores: restores[:0],
		nameIdx: c.nameIdx, constIdx: c.constIdx}
	compilers.Put(c)
	return ch
}

var compilers = sync.Pool{New: func() any {
	return &compiler{nameIdx: make(map[string]int32), constIdx: make(map[Const]int32)}
}}

// ctx is one enclosing breakable construct during compilation.
type ctx struct {
	labels     []string
	loop       bool // accepts continue
	breakPlain bool // accepts unlabeled break (loops and switches)

	// Depths at construct entry; jump fixups unwind to these. For for-in
	// loops iterDepth includes the loop's own iterator, and the break
	// target is the exit's pop instruction.
	iterDepth  int
	scopeDepth int
	tryDepth   int

	contPC     int // continue target pc; -1 while unknown
	breakJumps []int
	contJumps  []int

	// finally marks the guarded region of a try statement that has a
	// finally block (its try block and catch body): not a jump target, but
	// every jump and return that leaves it runs the block first. finJumps
	// are the OpEnterFinally instructions awaiting the block's pc.
	finally  bool
	finJumps []int
}

type compiler struct {
	ch    *Chunk
	sp    int
	maxSP int

	iterDepth  int
	scopeDepth int
	tryDepth   int

	argsSlot int // the function's ArgumentsSlot, -1 for none (ownArguments)

	ctxs     []*ctx
	nameIdx  map[string]int32
	constIdx map[Const]int32

	// Pooled with the emptied indexes above: the grown buffers ch's Code,
	// Consts, Names, Sites and frame tables start from. Growing them was most
	// of a compile's cost.
	code     []Instr
	consts   []Const
	names    []string
	sites    []Site
	frames   []Frame
	restores []Restore

	// fuseBarrier is the lowest pc into which no instruction may be
	// merged: any pc that was captured as a jump target (loop heads,
	// patched branches, break targets) must keep an instruction of its
	// own. Fusions check it before folding into the previous slot.
	fuseBarrier int
}

// ---------------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------------

func (c *compiler) emit(op Op, a, b int32) int {
	c.ch.Code = append(c.ch.Code, Instr{Op: op, A: a, B: b})
	return len(c.ch.Code) - 1
}

func (c *compiler) emit3(op Op, a, b, cc int32) int {
	c.ch.Code = append(c.ch.Code, Instr{Op: op, A: a, B: b, C: cc})
	return len(c.ch.Code) - 1
}

// emitStmt emits a statement-boundary marker, folding it into an
// immediately preceding marker when no code or jump target separates them
// (adjacent markers arise from blocks, empty statements, and declarations
// that compile to nothing — by construction no side effect runs between
// the boundaries, so one instruction may count them all).
func (c *compiler) emitStmt() {
	n := len(c.ch.Code)
	if n > c.fuseBarrier && n > 0 {
		switch last := &c.ch.Code[n-1]; last.Op {
		case OpStmt:
			if last.B == 0 {
				last.A++
				return
			}
		case OpSetLocal:
			last.Op = OpSetLocalStmt
			last.B, last.C = 1, 0
			return
		case OpSetLocalStmt:
			if last.C == 0 {
				last.B++
				return
			}
		case OpJumpIfFalse:
			last.Op = OpJumpIfFalseStmt
			last.B, last.C = 1, 0
			return
		case OpJumpIfFalseStmt:
			if last.C == 0 {
				last.B++
				return
			}
		}
	}
	c.emit(OpStmt, 1, 0)
}

// emitChargeBranch folds the if statement's BranchCost charge into its own
// boundary marker when possible.
func (c *compiler) emitChargeBranch() {
	n := len(c.ch.Code)
	if n > c.fuseBarrier && n > 0 {
		switch last := &c.ch.Code[n-1]; last.Op {
		case OpStmt:
			if last.B == 0 {
				last.B = 1
				return
			}
		case OpSetLocalStmt, OpJumpIfFalseStmt:
			if last.C == 0 {
				last.C = 1
				return
			}
		}
	}
	c.emit(OpChargeBranch, 0, 0)
}

func (c *compiler) pc() int { return len(c.ch.Code) }

// emitJumpIfFalse emits a falsy-branch, folding it into an immediately
// preceding OpModeEq (the mode-dispatch guard) when no jump target separates
// them. Returns the instruction index to patch.
func (c *compiler) emitJumpIfFalse() int {
	n := len(c.ch.Code)
	if n > c.fuseBarrier && n > 0 {
		if last := &c.ch.Code[n-1]; last.Op == OpModeEq {
			last.Op = OpJumpModeNe
			last.A, last.B = -1, last.A // the jump target, patched by the caller; the mode
			return n - 1
		}
	}
	return c.emit(OpJumpIfFalse, -1, 0)
}

// emitSetLocal stores the top of stack into slot, folding constant and
// closure producers into one instruction.
func (c *compiler) emitSetLocal(slot int32) {
	n := len(c.ch.Code)
	if n > c.fuseBarrier && n > 0 {
		switch last := &c.ch.Code[n-1]; last.Op {
		case OpConst:
			last.Op = OpConstSetLocal
			last.B = slot
			return
		case OpClosure:
			last.Op = OpClosureSetLocal
			last.B = slot
			return
		}
	}
	c.emit(OpSetLocal, slot, 0)
}

// target returns the current pc as a jump target, marking it as a fuse
// barrier so the instruction emitted there stays addressable.
func (c *compiler) target() int {
	c.fuseBarrier = c.pc()
	return c.fuseBarrier
}

// patch points instruction at's A operand at the current pc.
func (c *compiler) patch(at int) {
	c.ch.Code[at].A = int32(c.pc())
	c.fuseBarrier = c.pc()
}

func (c *compiler) push(n int) {
	c.sp += n
	if c.sp > c.maxSP {
		c.maxSP = c.sp
	}
}

func (c *compiler) pop(n int) { c.sp -= n }

func (c *compiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.ch.Names))
	c.ch.Names = append(c.ch.Names, s)
	c.nameIdx[s] = i
	return i
}

func (c *compiler) constant(v Const) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.ch.Consts))
	c.ch.Consts = append(c.ch.Consts, v)
	c.constIdx[v] = i
	return i
}

func (c *compiler) emitConst(v Const) {
	idx := c.constant(v)
	n := len(c.ch.Code)
	if n > c.fuseBarrier && n > 0 {
		if last := &c.ch.Code[n-1]; last.Op == OpStmt {
			last.Op = OpStmtConst
			last.B, last.C = last.A, last.B
			last.A = idx
			c.push(1)
			return
		}
	}
	c.emit(OpConst, idx, 0)
	c.push(1)
}

func (c *compiler) fn(f *ast.Func) int32 {
	c.ch.Funcs = append(c.ch.Funcs, f)
	return int32(len(c.ch.Funcs) - 1)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (c *compiler) stmt(s ast.Stmt) {
	// Statement boundary: the tree-walker counts a step and charges one
	// work unit per executed statement node; OpStmt reproduces both (plus
	// the step-budget check).
	c.emitStmt()
	switch n := s.(type) {
	case *ast.ExprStmt:
		c.exprStmt(n.X)
	case *ast.If:
		if n.Site && c.site(n) || n.Restore && c.restore(n) {
			break
		}
		c.emitChargeBranch()
		c.expr(n.Test)
		jf := c.emitJumpIfFalse()
		c.pop(1)
		c.stmt(n.Cons)
		if n.Alt != nil {
			j := c.emit(OpJump, -1, 0)
			c.patch(jf)
			c.stmt(n.Alt)
			c.patch(j)
		} else {
			c.patch(jf)
		}
	case *ast.Return:
		if n.Arg == nil {
			c.emitUnwind(nil, false)
			c.emit(OpReturnUndef, 0, 0)
			break
		}
		c.expr(n.Arg)
		c.emitUnwind(nil, true)
		c.emit(OpReturn, 0, 0)
		c.pop(1)
	case *ast.VarDecl:
		for i := range n.Decls {
			d := &n.Decls[i]
			if d.Init == nil {
				// Hoisting already created the slot; re-executing `var x`
				// must not reset it.
				continue
			}
			c.expr(d.Init)
			c.store(d.Ref, d.Name, 0)
		}
	case *ast.Block:
		for _, inner := range n.Body {
			c.stmt(inner)
		}
	case *ast.While:
		c.compileWhile(n, nil)
	case *ast.DoWhile:
		c.compileDoWhile(n, nil)
	case *ast.For:
		c.compileFor(n, nil)
	case *ast.ForIn:
		c.compileForIn(n, nil)
	case *ast.Break:
		c.breakTo(n.Label)
	case *ast.Continue:
		c.continueTo(n.Label)
	case *ast.Labeled:
		c.labeled(n)
	case *ast.Switch:
		c.compileSwitch(n)
	case *ast.Throw:
		c.expr(n.Arg)
		c.emit(OpThrow, 0, 0)
		c.pop(1)
	case *ast.Try:
		c.compileTry(n)
	case *ast.FuncDecl, *ast.Empty:
		// Function declarations were installed at frame entry (FnDecls);
		// re-execution is a no-op, exactly as in the tree-walker.
	default:
		panic(fmt.Sprintf("bytecode: statement %T", s))
	}
}

// site lowers a call site the instrumentation marked (ast.If.Site),
//
//	if ($mode === "normal" || $lbl === L) {
//	  t = $mode === "normal" ? app : $k[1].apply($k[2]);
//	  if ($mode === "capture") { $stack.push(…); return; }
//	  $lbl = -1;
//	}
//
// instruction for instruction as stmt lowers any if, with OpSiteEnter after the
// boundary, OpSiteLeave in place of the jump over the restore arm and, when
// app is `$suspend()` or a helper's call on slots and literals, OpSitePoll or
// OpSiteHelper before them. It reports false, emitting nothing, for a shape it
// does not recognize or a t or $lbl that is not a slot of the current frame (a
// site inside a catch clause).
func (c *compiler) site(n *ast.If) bool {
	or, _ := n.Test.(*ast.Logical)
	block, _ := n.Cons.(*ast.Block)
	if or == nil || block == nil || len(block.Body) != 3 || n.Alt != nil {
		return false
	}
	target, value, okApply := c.localStore(block.Body[0])
	label, reset, okReset := c.localStore(block.Body[2])
	cond, okCond := value.(*ast.Cond)
	minusOne, okOne := reset.(*ast.Number)
	if !isModeNormal(or.L) || !okApply || !okReset || !okCond || !okOne || minusOne.Value != -1 || !isModeNormal(cond.Test) {
		return false
	}
	s := Site{Target: int32(target.Ref.Slot()), Label: int32(label.Ref.Slot())}
	poll := false
	if call, ok := cond.Cons.(*ast.Call); ok {
		if id, ok := call.Callee.(*ast.Ident); ok {
			switch {
			case id.Intrinsic() == ast.IntrinsicSuspend && len(call.Args) == 0:
				poll = true
			case id.Intrinsic().IsHelper():
				c.helperArgs(id.Intrinsic(), call.Args, &s)
			}
		}
	}
	idx := int32(len(c.ch.Sites))
	c.ch.Sites = append(c.ch.Sites, s)

	c.emitChargeBranch()
	if poll {
		c.emit(OpSitePoll, idx, 0)
	}
	if s.Helper != ast.NoIntrinsic {
		c.emit(OpSiteHelper, idx, 0)
	}
	c.emit(OpSiteEnter, idx, 0)
	c.expr(n.Test)
	jf := c.emitJumpIfFalse()
	c.pop(1)
	c.emitStmt() // the block
	c.emitStmt() // the assignment
	c.expr(cond.Test)
	jr := c.emitJumpIfFalse()
	c.pop(1)
	c.ch.Sites[idx].Body = int32(c.target())
	c.expr(cond.Cons)
	leave := c.emit(OpSiteLeave, idx, -1)
	c.pop(1)
	c.patch(jr)
	c.expr(cond.Alt)
	c.ch.Code[leave].B = int32(c.target())
	c.storeRef(target.Ref)
	c.stmt(block.Body[1])
	c.stmt(block.Body[2])
	c.patch(jf)
	c.ch.Sites[idx].Exit = int32(c.pc())
	return true
}

// helperArgs fills s's helper operands for a call of the helper h applied to
// one to three arguments, each a slot of the current frame or a literal, and
// leaves s as it is for any other call.
func (c *compiler) helperArgs(h ast.Intrinsic, args []ast.Expr, s *Site) {
	if len(args) == 0 || len(args) > len(s.Args) {
		return
	}
	for i, a := range args {
		if slot, ok := c.localSlot(a); ok {
			s.Args[i] = slot
		} else if k, ok := literalConst(a); ok {
			s.Args[i] = ^c.constant(k)
		} else {
			return
		}
	}
	s.Helper, s.NArgs = h, uint8(len(args))
}

// modeTest takes a mode guard, `$mode === "<m>"` with $mode the intrinsic,
// apart.
func modeTest(e ast.Expr) (ast.Mode, bool) {
	b, ok := e.(*ast.Binary)
	if !ok || b.Op != "===" {
		return 0, false
	}
	id, okID := b.L.(*ast.Ident)
	s, okStr := b.R.(*ast.Str)
	if !okID || !okStr || id.Intrinsic() != ast.IntrinsicMode {
		return 0, false
	}
	return ast.ModeNamed(s.Value)
}

// isModeNormal reports whether e is `$mode === "normal"`.
func isModeNormal(e ast.Expr) bool {
	m, ok := modeTest(e)
	return ok && m == ast.ModeNormal
}

// localStore takes `x = v;` apart when x is a slot of the current frame.
func (c *compiler) localStore(s ast.Stmt) (*ast.Ident, ast.Expr, bool) {
	es, _ := s.(*ast.ExprStmt)
	if es == nil {
		return nil, nil, false
	}
	a, _ := es.X.(*ast.Assign)
	if a == nil || a.Op != "=" {
		return nil, nil, false
	}
	if _, ok := c.localSlot(a.Target); !ok {
		return nil, nil, false
	}
	return a.Target.(*ast.Ident), a.Value, true
}

// restore lowers a prologue's restore block (ast.If.Restore),
//
//	if ($mode === "restore") {
//	  $k = $rstack.pop(); $lbl = $k[0];
//	  x0 = $k[B]; …; $k = $rstack[$rstack.length - 1];
//	}
//
// as stmt lowers any if, with OpRestoreFrame where the block begins. It reads
// the targets, the array and the first saved local's index B off the tree and
// trusts the mark for the rest; it reports false, emitting nothing, when a
// target is not a slot of the current frame.
func (c *compiler) restore(n *ast.If) bool {
	body := n.Cons.(*ast.Block).Body
	pop := body[0].(*ast.ExprStmt).X.(*ast.Assign).Value.(*ast.Call).Callee.(*ast.Member)
	array := intrinsicOf(pop.X)
	ok := array != ast.NoIntrinsic
	slots := make([]int32, len(body))
	for i, s := range body {
		r, isSlot := slotRef(s.(*ast.ExprStmt).X.(*ast.Assign).Target)
		ok = ok && isSlot && r.Hops() == 0
		slots[i] = int32(r.Slot())
	}
	if !ok {
		return false
	}
	last := len(slots) - 1
	base := int32(1) // no locals: the label is all the block reads
	if last > 2 {
		base = int32(body[2].(*ast.ExprStmt).X.(*ast.Assign).Value.(*ast.Member).Index.(*ast.Number).Value)
	}
	c.ch.Restores = append(c.ch.Restores, Restore{Array: array, K: slots[0], Lbl: slots[1], Base: base,
		Locals: slots[2:last], Steps: uint32(len(body) + 1)})
	c.emitChargeBranch()
	c.expr(n.Test)
	jf := c.emitJumpIfFalse()
	c.pop(1)
	at := c.emit(OpRestoreFrame, int32(len(c.ch.Restores)-1), -1)
	c.stmt(n.Cons)
	c.patch(jf)
	c.ch.Code[at].B = c.ch.Code[jf].A
	return true
}

// pushCtx enters a breakable construct.
func (c *compiler) pushCtx(labels []string, loop, breakPlain bool, contPC int) *ctx {
	cx := &ctx{
		labels: labels, loop: loop, breakPlain: breakPlain,
		iterDepth: c.iterDepth, scopeDepth: c.scopeDepth, tryDepth: c.tryDepth,
		contPC: contPC,
	}
	c.ctxs = append(c.ctxs, cx)
	return cx
}

// popCtx leaves the construct, patching break jumps to the current pc.
func (c *compiler) popCtx(cx *ctx) {
	c.popCtxAt(cx, c.pc())
}

// setCont fixes the construct's continue target at the current pc, patching
// deferred continue jumps.
func (c *compiler) setCont(cx *ctx) {
	cx.contPC = c.target()
	for _, at := range cx.contJumps {
		c.patch(at)
	}
}

// jumpTarget is the construct a break (or, cont, a continue) to label
// leaves for; the parser checked that there is one.
func (c *compiler) jumpTarget(label string, cont bool) *ctx {
	for i := len(c.ctxs) - 1; i >= 0; i-- {
		cx := c.ctxs[i]
		if (cx.loop || !cont) && (label == "" && cx.breakPlain || slices.Contains(cx.labels, label)) {
			return cx
		}
	}
	panic(fmt.Sprintf("bytecode: jump to %q has no target", label))
}

// emitUnwind emits what control leaving for cx must do on the way — cx nil
// is leaving the function, with the return value on top of the stack when
// keepTop: enter every finally block between here and there, innermost
// first, then pop the iterators, catch frames and handlers still standing.
// The static stack depth is left as it was, for the fall-through path.
func (c *compiler) emitUnwind(cx *ctx, keepTop bool) {
	iters, scopes, tries := c.iterDepth, c.scopeDepth, c.tryDepth
	for i := len(c.ctxs) - 1; i >= 0 && c.ctxs[i] != cx; i-- {
		f := c.ctxs[i]
		if !f.finally {
			continue
		}
		// Catch-only handlers above f's own are popped here; OpEnterFinally
		// pops f's, and resets operand stack and environment to its record.
		for ; tries > f.tryDepth+1; tries-- {
			c.emit(OpPopTry, 0, 0)
		}
		var keep int32
		if keepTop {
			keep = 1
		}
		resume := int32(c.pc() + 1)
		f.finJumps = append(f.finJumps, c.emit3(OpEnterFinally, -1, resume, keep))
		c.target()
		if !keepTop {
			c.emit(OpPop, 0, 0) // the slot a return value would have held
		}
		iters, scopes, tries = f.iterDepth, f.scopeDepth, f.tryDepth
	}
	if cx == nil {
		return
	}
	for ; iters > cx.iterDepth; iters-- {
		c.emit(OpPop, 0, 0)
	}
	for ; scopes > cx.scopeDepth; scopes-- {
		c.emit(OpLeaveScope, 0, 0)
	}
	for ; tries > cx.tryDepth; tries-- {
		c.emit(OpPopTry, 0, 0)
	}
}

func (c *compiler) breakTo(label string) {
	cx := c.jumpTarget(label, false)
	c.emitUnwind(cx, false)
	cx.breakJumps = append(cx.breakJumps, c.emit(OpJump, -1, 0))
}

func (c *compiler) continueTo(label string) {
	cx := c.jumpTarget(label, true)
	c.emitUnwind(cx, false)
	if cx.contPC >= 0 {
		c.emit(OpJump, int32(cx.contPC), 0)
	} else {
		cx.contJumps = append(cx.contJumps, c.emit(OpJump, -1, 0))
	}
}

func (c *compiler) compileWhile(n *ast.While, labels []string) {
	head := c.target()
	c.expr(n.Test)
	jf := c.emitJumpIfFalse()
	c.pop(1)
	cx := c.pushCtx(labels, true, true, head)
	c.stmt(n.Body)
	c.emit(OpJump, int32(head), 0)
	c.patch(jf)
	c.popCtx(cx)
}

func (c *compiler) compileDoWhile(n *ast.DoWhile, labels []string) {
	body := c.target()
	cx := c.pushCtx(labels, true, true, -1)
	c.stmt(n.Body)
	c.setCont(cx)
	c.expr(n.Test)
	c.emit(OpJumpIfTrue, int32(body), 0)
	c.pop(1)
	c.popCtx(cx)
}

func (c *compiler) compileFor(n *ast.For, labels []string) {
	if n.Init != nil {
		c.stmt(n.Init)
	}
	head := c.target()
	jf := -1
	if n.Test != nil {
		c.expr(n.Test)
		jf = c.emitJumpIfFalse()
		c.pop(1)
	}
	cx := c.pushCtx(labels, true, true, -1)
	c.stmt(n.Body)
	c.setCont(cx)
	if n.Update != nil {
		c.exprStmt(n.Update)
	}
	c.emit(OpJump, int32(head), 0)
	if jf >= 0 {
		c.patch(jf)
	}
	c.popCtx(cx)
}

func (c *compiler) compileForIn(n *ast.ForIn, labels []string) {
	c.expr(n.Obj)
	c.emit(OpForInInit, 0, 0)
	// The iterator replaces the object on the stack and stays there for
	// the duration of the loop.
	c.iterDepth++
	head := c.target()
	exit := c.emit(OpForInNext, -1, 0)
	c.push(1) // the key
	c.store(n.Ref, n.Name, 0)
	cx := c.pushCtx(labels, true, true, head)
	c.stmt(n.Body)
	c.emit(OpJump, int32(head), 0)
	// Exhausted (and break): pop the iterator.
	c.patch(exit)
	// Break targets the pop below, which discards this loop's iterator.
	c.iterDepth--
	c.popCtxAt(cx, c.pc())
	c.emit(OpPop, 0, 0)
	c.pop(1)
}

// popCtxAt is popCtx with an explicit break-target pc (the for-in exit
// pop, which sits before the jump-target-visible end of the loop).
func (c *compiler) popCtxAt(cx *ctx, breakPC int) {
	c.fuseBarrier = c.pc()
	c.ctxs = c.ctxs[:len(c.ctxs)-1]
	for _, at := range cx.breakJumps {
		c.ch.Code[at].A = int32(breakPC)
	}
}

func (c *compiler) labeled(n *ast.Labeled) {
	labels := []string{n.Label}
	body := n.Body
	for {
		inner, ok := body.(*ast.Labeled)
		if !ok {
			break
		}
		labels = append(labels, inner.Label)
		body = inner.Body
	}
	switch b := body.(type) {
	case *ast.While:
		c.compileWhile(b, labels)
	case *ast.DoWhile:
		c.compileDoWhile(b, labels)
	case *ast.For:
		c.compileFor(b, labels)
	case *ast.ForIn:
		c.compileForIn(b, labels)
	default:
		cx := c.pushCtx(labels, false, false, -1)
		c.stmt(body)
		c.popCtx(cx)
	}
}

func (c *compiler) compileSwitch(n *ast.Switch) {
	c.expr(n.Disc)
	// Test chain, in source order, skipping default: each test runs with
	// the discriminant still on the stack.
	type caseRef struct{ idx, jump int }
	var dispatch []caseRef
	for i, cs := range n.Cases {
		if cs.Test == nil {
			continue
		}
		c.emit(OpDup, 0, 0)
		c.push(1)
		c.expr(cs.Test)
		c.emit(OpStrictEq, 0, 0)
		c.pop(1)
		j := c.emit(OpJumpIfTrue, -1, 0)
		c.pop(1)
		dispatch = append(dispatch, caseRef{idx: i, jump: j})
	}
	// No test matched: drop the discriminant, enter the default case (or
	// leave).
	c.emit(OpPop, 0, 0)
	c.pop(1)
	noMatch := c.emit(OpJump, -1, 0)

	// Dispatch stubs: pop the discriminant, jump to the case body.
	bodyJumps := make(map[int]int, len(dispatch))
	for _, d := range dispatch {
		c.patch(d.jump)
		c.emit(OpPop, 0, 0)
		bodyJumps[d.idx] = c.emit(OpJump, -1, 0)
	}

	cx := c.pushCtx(nil, false, true, -1)
	defaultIdx := -1
	for i, cs := range n.Cases {
		if j, ok := bodyJumps[i]; ok {
			c.patch(j)
		}
		if cs.Test == nil {
			defaultIdx = i
			// noMatch lands here.
			c.patch(noMatch)
		}
		for _, inner := range cs.Body {
			c.stmt(inner)
		}
	}
	if defaultIdx < 0 {
		c.patch(noMatch)
	}
	c.popCtx(cx)
}

// compileTry lowers a try statement onto one handler frame. A throw in the
// try block lands in the catch body; a throw the catch did not take or itself
// raised lands in the finally block with the throw pending, as do the jumps
// and returns emitUnwind routes through it. The block ends by taking up
// whatever was pending, unless it completed abruptly itself, which wins.
func (c *compiler) compileTry(n *ast.Try) {
	var fin *ctx
	if n.Finally != nil {
		fin = c.pushCtx(nil, false, false, -1)
		fin.finally = true
	}
	// The engine charges handler entry once per try statement;
	// exceptional-strategy instrumented code pays this on every application.
	try := c.emit(OpTry, -1, -1)
	c.tryDepth++
	if c.tryDepth > c.ch.MaxTries {
		c.ch.MaxTries = c.tryDepth
	}
	for _, inner := range n.Block.Body {
		c.stmt(inner)
	}
	if fin == nil {
		c.emit(OpPopTry, 0, 0)
		c.tryDepth--
	}
	if n.Catch != nil {
		end := c.emit(OpJump, -1, 0)
		// The unwinder restores the stack, pushes the thrown value, and
		// lands here; the handler stays only if it has a finally to guard.
		c.patch(try)
		c.push(1)
		c.ch.Scopes = append(c.ch.Scopes, n.CatchScope)
		c.emit(OpEnterCatch, int32(len(c.ch.Scopes)-1), 0)
		c.pop(1)
		c.scopeDepth++
		for _, inner := range n.Catch.Body {
			c.stmt(inner)
		}
		c.emit(OpLeaveScope, 0, 0)
		c.scopeDepth--
		c.patch(end)
	}
	if fin == nil {
		return
	}
	c.ctxs = c.ctxs[:len(c.ctxs)-1]
	c.tryDepth--
	normal := c.emit3(OpEnterFinally, -1, -1, 0)
	block := int32(c.target())
	c.ch.Code[try].B = block
	for _, at := range append(fin.finJumps, normal) {
		c.ch.Code[at].A = block
	}
	// The pending completion rides the operand stack under the block's own
	// temporaries, where a jump out of the block pops it like an iterator.
	c.push(2)
	c.iterDepth += 2
	for _, inner := range n.Finally.Body {
		c.stmt(inner)
	}
	c.emit(OpEndFinally, 0, 0)
	c.ch.Code[normal].B = int32(c.target())
	c.emit(OpPop, 0, 0)
	c.iterDepth -= 2
	c.pop(2)
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// exprStmt compiles an expression in statement position, leaving nothing on
// the stack.
func (c *compiler) exprStmt(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Assign:
		c.assign(n, false)
	case *ast.Update:
		c.update(n, false)
	case *ast.Seq:
		for _, x := range n.Exprs {
			c.exprStmt(x)
		}
	default:
		c.expr(e)
		c.emit(OpPop, 0, 0)
		c.pop(1)
	}
}

// expr compiles an expression, leaving exactly one value on the stack.
func (c *compiler) expr(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		c.loadIdent(n)
	case *ast.Number:
		c.emitConst(NumberConst(n.Value))
	case *ast.Str:
		c.emitConst(StringConst(n.Value))
	case *ast.Bool:
		if n.Value {
			c.emit(OpTrue, 0, 0)
		} else {
			c.emit(OpFalse, 0, 0)
		}
		c.push(1)
	case *ast.Null:
		c.emit(OpNull, 0, 0)
		c.push(1)
	case *ast.This:
		c.loadBinding(n.Ref)
	case *ast.NewTarget:
		c.loadBinding(n.Ref)
	case *ast.Func:
		c.emit(OpClosure, c.fn(n), 0)
		c.push(1)
	case *ast.Array:
		for _, el := range n.Elems {
			if el == nil {
				// Elision: a hole is an undefined element here (arrays are
				// dense), exactly as in the tree-walker.
				c.emit(OpUndef, 0, 0)
				c.push(1)
				continue
			}
			c.expr(el)
		}
		c.emit(OpArray, int32(len(n.Elems)), 0)
		c.pop(len(n.Elems))
		c.push(1)
	case *ast.Object:
		c.emit(OpNewObject, int32(len(n.Props)), 0)
		c.push(1)
		for _, p := range n.Props {
			switch p.Kind {
			case ast.PropInit:
				c.expr(p.Value)
				c.emit(OpSetProp, c.name(p.Key), 0)
				c.pop(1)
			case ast.PropGet, ast.PropSet:
				c.ch.Accessors = append(c.ch.Accessors, Accessor{
					Name:   c.name(p.Key),
					Fn:     c.fn(p.Value.(*ast.Func)),
					Setter: p.Kind == ast.PropSet,
				})
				c.emit(OpSetAccessor, int32(len(c.ch.Accessors)-1), 0)
			}
		}
	case *ast.Unary:
		c.unary(n)
	case *ast.Update:
		c.update(n, true)
	case *ast.Binary:
		// A mode guard tests the realm's mode; any other `x === <literal>`
		// fuses the constant load and compare (and, for proved-global left
		// sides, the load too).
		if m, ok := modeTest(n); ok {
			c.emit(OpModeEq, int32(m), 0)
			c.push(1)
			return
		}
		if n.Op == "===" {
			if k, ok := literalConst(n.R); ok {
				if id, isIdent := n.L.(*ast.Ident); isIdent && id.Ref.Global() {
					c.emit3(OpGlobalEqConst, int32(id.Site), c.name(id.Name), c.constant(k))
					c.push(1)
					return
				}
				c.expr(n.L)
				c.emit(OpStrictEqConst, c.constant(k), 0)
				return
			}
		}
		c.expr(n.L)
		c.expr(n.R)
		c.emit(binaryOp(n.Op), 0, 0)
		c.pop(1)
	case *ast.Logical:
		c.expr(n.L)
		var j int
		if n.Op == "&&" {
			j = c.emit(OpJumpIfFalsyKeep, -1, 0)
		} else {
			j = c.emit(OpJumpIfTruthyKeep, -1, 0)
		}
		c.pop(1)
		c.expr(n.R)
		c.patch(j)
	case *ast.Assign:
		c.assign(n, true)
	case *ast.Cond:
		c.expr(n.Test)
		jf := c.emitJumpIfFalse()
		c.pop(1)
		c.expr(n.Cons)
		j := c.emit(OpJump, -1, 0)
		c.pop(1) // the alternative re-pushes
		c.patch(jf)
		c.expr(n.Alt)
		c.patch(j)
	case *ast.Call:
		c.call(n)
	case *ast.New:
		c.expr(n.Callee)
		for _, a := range n.Args {
			c.expr(a)
		}
		c.emit(OpNew, int32(len(n.Args)), 0)
		c.pop(len(n.Args) + 1)
		c.push(1)
	case *ast.Member:
		if ref, ok := c.ownArguments(n.X); ok {
			_, lit := literalConst(n.Index)
			_, id := n.Index.(*ast.Ident)
			switch {
			case n.Computed && (lit || id):
				// Neither can assign `arguments` on the way, so reading the
				// slot after the index is reading it before.
				c.expr(n.Index)
				c.emit3(OpGetArg, 0, 0, ref)
				c.push(1) // the fall-through to OpGetIndex spreads [base idx]
				c.pop(1)
				return
			case !n.Computed && n.Name == "length":
				c.emit3(OpArgsLen, c.name(n.Name), int32(n.Site), ref)
				c.push(1)
				return
			}
		}
		if !n.Computed {
			// Member reads off a local are the hottest property accesses
			// in instrumented code (frame records, runtime state).
			if slot, ok := c.localSlot(n.X); ok {
				c.emit3(OpGetLocalMember, slot, c.name(n.Name), int32(n.Site))
				c.push(1)
				return
			}
			c.expr(n.X)
			c.emit(OpGetMember, c.name(n.Name), int32(n.Site))
			return
		}
		c.expr(n.X)
		c.expr(n.Index)
		c.emit(OpGetIndex, 0, 0)
		c.pop(2)
		c.push(1)
	case *ast.Seq:
		if len(n.Exprs) == 0 {
			c.emit(OpUndef, 0, 0)
			c.push(1)
			return
		}
		for i, x := range n.Exprs {
			c.expr(x)
			if i < len(n.Exprs)-1 {
				c.emit(OpPop, 0, 0)
				c.pop(1)
			}
		}
	default:
		panic(fmt.Sprintf("bytecode: expression %T", e))
	}
}

// binaryOp is the opcode of a binary operator, or of a compound
// assignment's.
func binaryOp(op string) Op {
	if o, ok := binaryOps[op]; ok {
		return o
	}
	panic("bytecode: binary operator " + op)
}

var binaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"**": OpPow, "<": OpLt, ">": OpGt, "<=": OpLe, ">=": OpGe,
	"==": OpEq, "!=": OpNe, "===": OpStrictEq, "!==": OpStrictNe,
	"&": OpBitAnd, "|": OpBitOr, "^": OpBitXor, "<<": OpShl, ">>": OpShr,
	">>>": OpUshr, "instanceof": OpInstanceof, "in": OpIn,
}

func (c *compiler) loadRef(r ast.Ref) {
	if r.Hops() == 0 {
		n := len(c.ch.Code)
		if n > c.fuseBarrier && n > 0 {
			if last := &c.ch.Code[n-1]; last.Op == OpStmt {
				last.Op = OpStmtGetLocal
				last.B, last.C = last.A, last.B
				last.A = int32(r.Slot())
				c.push(1)
				return
			}
		}
		c.emit(OpGetLocal, int32(r.Slot()), 0)
	} else {
		c.emit(OpGetRef, int32(uint32(r)), 0)
	}
	c.push(1)
}

// loadBinding pushes `this` or `new.target`: its slot, or undefined where no
// function binds it (an arrow function made by top-level code).
func (c *compiler) loadBinding(r ast.Ref) {
	if r.Valid() {
		c.loadRef(r)
		return
	}
	c.emit(OpUndef, 0, 0)
	c.push(1)
}

func (c *compiler) storeRef(r ast.Ref) {
	if r.Hops() == 0 {
		c.emitSetLocal(int32(r.Slot()))
	} else {
		c.emit(OpSetRef, int32(uint32(r)), 0)
	}
	c.pop(1)
}

func (c *compiler) loadIdent(n *ast.Ident) {
	if ref, ok := c.ownArguments(n); ok {
		c.emit3(OpGetArguments, 0, 0, ref)
		c.push(1)
		return
	}
	if n.Ref.Valid() {
		c.loadRef(n.Ref)
		return
	}
	if k := n.Intrinsic(); k != ast.NoIntrinsic {
		c.emit(OpIntrinsic, int32(k), 0)
		c.push(1)
		return
	}
	c.emit(OpGetGlobal, int32(n.Site), c.name(n.Name))
	c.push(1)
}

// ownArguments reports whether e names the compiled function's own
// `arguments` binding — its frame's ArgumentsSlot, as many hops out as catch
// clauses enclose e — returning the packed coordinate. Only OpGetArguments,
// OpGetArg and OpArgsLen read it.
func (c *compiler) ownArguments(e ast.Expr) (int32, bool) {
	id, ok := e.(*ast.Ident)
	if !ok || !id.Ref.Valid() || id.Ref.Slot() != c.argsSlot || id.Ref.Hops() != c.scopeDepth {
		return 0, false
	}
	return int32(uint32(id.Ref)), true
}

// store writes the top of stack into a reference to name (popping it), with
// the tree-walker's implicit-global semantics; site is a global's cache.
func (c *compiler) store(r ast.Ref, name string, site uint32) {
	if r.Valid() {
		c.storeRef(r)
		return
	}
	c.emit(OpSetGlobal, int32(site), c.name(name))
	c.pop(1)
}

func (c *compiler) unary(n *ast.Unary) {
	switch n.Op {
	case "typeof":
		if id, ok := n.X.(*ast.Ident); ok && !id.Ref.Valid() && id.Intrinsic() == ast.NoIntrinsic {
			// typeof tolerates unresolvable names.
			c.emit(OpTypeofGlobal, int32(id.Site), c.name(id.Name))
			c.push(1)
			return
		}
		c.expr(n.X)
		c.emit(OpTypeofVal, 0, 0)
	case "delete":
		m, ok := n.X.(*ast.Member)
		if !ok {
			// delete of a non-reference does not evaluate its operand.
			c.emit(OpTrue, 0, 0)
			c.push(1)
			return
		}
		c.expr(m.X)
		if m.Computed {
			c.expr(m.Index)
			c.emit(OpDeleteIndex, 0, 0)
			c.pop(2)
		} else {
			c.emit(OpDeleteMember, c.name(m.Name), 0)
			c.pop(1)
		}
		c.push(1)
	case "!":
		c.expr(n.X)
		c.emit(OpNot, 0, 0)
	case "-":
		c.expr(n.X)
		c.emit(OpNeg, 0, 0)
	case "+":
		c.expr(n.X)
		c.emit(OpToNumber, 0, 0)
	case "~":
		c.expr(n.X)
		c.emit(OpBitNot, 0, 0)
	case "void":
		c.expr(n.X)
		c.emit(OpVoid, 0, 0)
	default:
		panic("bytecode: unary operator " + n.Op)
	}
}

func (c *compiler) update(n *ast.Update, want bool) {
	switch t := n.X.(type) {
	case *ast.Ident:
		c.loadIdent(t)
		c.emit(OpToNumber, 0, 0)
		if want && !n.Prefix {
			c.emit(OpDup, 0, 0)
			c.push(1)
		}
		c.emitConst(NumberConst(1))
		if n.Op == "++" {
			c.emit(OpAdd, 0, 0)
		} else {
			c.emit(OpSub, 0, 0)
		}
		c.pop(1)
		if want && n.Prefix {
			c.emit(OpDup, 0, 0)
			c.push(1)
		}
		c.store(t.Ref, t.Name, t.Site)
	case *ast.Member:
		c.memberRefDup(t)
		c.emit(OpToNumber, 0, 0)
		if want && !n.Prefix {
			if t.Computed {
				c.emit(OpDupX2, 0, 0)
			} else {
				c.emit(OpDupX1, 0, 0)
			}
			c.push(1)
		}
		c.emitConst(NumberConst(1))
		if n.Op == "++" {
			c.emit(OpAdd, 0, 0)
		} else {
			c.emit(OpSub, 0, 0)
		}
		c.pop(1)
		c.memberSetKeep(t)
		if !want || !n.Prefix {
			// Drop the written value; for a wanted postfix result the
			// pre-increment number was tucked underneath by the DupX above
			// and becomes the top of stack.
			c.emit(OpPop, 0, 0)
			c.pop(1)
		}
	default:
		panic(fmt.Sprintf("bytecode: update target %T", n.X))
	}
}

// memberRefDup evaluates a member reference once (base, and for computed
// references the stringified-at-most-once key), duplicates it, and loads
// the current value: ... → [base (key) value].
func (c *compiler) memberRefDup(m *ast.Member) {
	c.expr(m.X)
	if m.Computed {
		c.expr(m.Index)
		c.emit(OpToPropKey, 0, 0)
		c.emit(OpDup2, 0, 0)
		c.push(2)
		c.emit(OpGetIndex, 0, 0)
		c.pop(2)
		c.push(1)
	} else {
		c.emit(OpDup, 0, 0)
		c.push(1)
		c.emit(OpGetMember, c.name(m.Name), int32(m.Site))
		c.pop(1)
		c.push(1)
	}
}

// memberSetKeep writes [base (key) v] → [v] through the reference.
func (c *compiler) memberSetKeep(m *ast.Member) {
	if m.Computed {
		c.emit(OpSetIndexKeep, 0, 0)
		c.pop(3)
		c.push(1)
	} else {
		c.emit(OpSetMemberKeep, c.name(m.Name), int32(m.Site))
		c.pop(2)
		c.push(1)
	}
}

func (c *compiler) assign(n *ast.Assign, want bool) {
	if n.Op == "=" {
		// Plain assignment evaluates the right-hand side before the target
		// reference, as the tree-walker does.
		c.expr(n.Value)
		if want {
			c.emit(OpDup, 0, 0)
			c.push(1)
		}
		switch t := n.Target.(type) {
		case *ast.Ident:
			c.store(t.Ref, t.Name, t.Site)
		case *ast.Member:
			c.expr(t.X)
			if t.Computed {
				c.expr(t.Index)
				c.emit(OpToPropKey, 0, 0)
				c.emit(OpSetIndex, 0, 0)
				c.pop(3)
			} else {
				c.emit(OpSetMember, c.name(t.Name), int32(t.Site))
				c.pop(2)
			}
		default:
			panic(fmt.Sprintf("bytecode: assignment target %T", n.Target))
		}
		return
	}
	// Compound assignment: evaluate the target reference once.
	op := binaryOp(n.Op[:len(n.Op)-1])
	switch t := n.Target.(type) {
	case *ast.Ident:
		c.loadIdent(t)
		c.expr(n.Value)
		c.emit(op, 0, 0)
		c.pop(1)
		if want {
			c.emit(OpDup, 0, 0)
			c.push(1)
		}
		c.store(t.Ref, t.Name, t.Site)
	case *ast.Member:
		c.memberRefDup(t)
		c.expr(n.Value)
		c.emit(op, 0, 0)
		c.pop(1)
		c.memberSetKeep(t)
		if !want {
			c.emit(OpPop, 0, 0)
			c.pop(1)
		}
	default:
		panic(fmt.Sprintf("bytecode: assignment target %T", n.Target))
	}
}

// call lowers a call, after the frame instruction that stands for it when the
// instrumentation marked it (frameOp).
func (c *compiler) call(n *ast.Call) {
	at := -1
	if m, ok := n.Callee.(*ast.Member); ok && m.Frame {
		at = c.frameOp(n, m)
	}
	c.plainCall(n)
	if at >= 0 {
		c.ch.Code[at].B = int32(c.target())
	}
}

// frameOp emits the frame instruction for a frame-protocol call
// (ast.Member.Frame) and returns its pc, or -1, emitting nothing, when what
// the instruction reads is not a slot, a proved global or one of the
// runtime's arrays. The layout of what it reads is the mark's: instrument
// builds it.
func (c *compiler) frameOp(n *ast.Call, m *ast.Member) int {
	array := intrinsicOf(m.X)
	runtime := array != ast.NoIntrinsic
	switch {
	case m.Name == "push" && runtime:
		f, ok := c.frameLiteral(n.Args[0].(*ast.Array))
		if !ok {
			return -1
		}
		f.Array = array
		c.ch.Frames = append(c.ch.Frames, f)
		return c.emit(OpPushFrame, int32(len(c.ch.Frames)-1), -1)
	case m.Name == "pop" && runtime:
		return c.emit(OpPopFrame, int32(array), -1)
	case m.Name == "apply": // $k[1].apply($k[2][, $k[3]])
		if k, ok := slotRef(m.X.(*ast.Member).X); ok {
			return c.emit3(OpReenter, int32(k), -1, int32(len(n.Args)-1))
		}
	}
	return -1
}

// frameLiteral reads a frame push's operand, [L, F, this, x…], as instrument
// builds it.
func (c *compiler) frameLiteral(a *ast.Array) (f Frame, ok bool) {
	e := a.Elems
	f.Label = int32(e[0].(*ast.Number).Value)
	if f.FnGlobal, ok = c.global(e[1]); ok {
		f.Fn = ast.RefGlobal
	} else if f.Fn, ok = slotRef(e[1]); !ok {
		return f, false
	}
	if f.Self, ok = slotRef(e[2]); !ok {
		return f, false
	}
	f.Elems = make([]ast.Ref, len(e)-3)
	for i, x := range e[3:] {
		if f.Elems[i], ok = slotRef(x); !ok {
			return f, false
		}
	}
	return f, true
}

// slotRef returns the coordinate of an identifier or `this` resolved to a
// frame slot.
func slotRef(e ast.Expr) (ast.Ref, bool) {
	var r ast.Ref
	switch e := e.(type) {
	case *ast.Ident:
		r = e.Ref
	case *ast.This:
		r = e.Ref
	}
	return r, r.Valid()
}

// intrinsicOf is the runtime binding e is a marked reference to, or
// NoIntrinsic.
func intrinsicOf(e ast.Expr) ast.Intrinsic {
	if id, ok := e.(*ast.Ident); ok {
		return id.Intrinsic()
	}
	return ast.NoIntrinsic
}

// global takes a proved-global identifier apart.
func (c *compiler) global(e ast.Expr) (Global, bool) {
	id, _ := e.(*ast.Ident)
	if id == nil || !id.Ref.Global() || id.Site == 0 {
		return Global{}, false
	}
	return Global{c.name(id.Name), int32(id.Site)}, true
}

func (c *compiler) plainCall(n *ast.Call) {
	switch callee := n.Callee.(type) {
	case *ast.Member:
		m := callee
		if m.Computed {
			c.expr(m.X)
			c.expr(m.Index)
			c.emit(OpGetMethodIndex, 0, 0)
			c.pop(2)
			c.push(2)
		} else if slot, ok := c.localSlot(m.X); ok {
			c.emit3(OpGetLocalMethod, slot, c.name(m.Name), int32(m.Site))
			c.push(2)
		} else {
			c.expr(m.X)
			c.emit(OpGetMethod, c.name(m.Name), int32(m.Site))
			c.pop(1)
			c.push(2)
		}
	case *ast.Ident:
		// Plain calls of globals (runtime primitives) and locals
		// (continuation thunks) fuse the `this` push with the callee load;
		// the ubiquitous zero-argument forms fuse the whole call.
		slot, local := c.localSlot(callee)
		switch {
		case callee.Intrinsic() != ast.NoIntrinsic:
			c.emit(OpCalleeIntrinsic, int32(callee.Intrinsic()), 0)
			c.push(2)
		case callee.Ref.Global():
			if len(n.Args) == 0 {
				c.emit(OpCall0Global, int32(callee.Site), c.name(callee.Name))
				c.push(1)
				return
			}
			c.emit(OpCalleeGlobal, int32(callee.Site), c.name(callee.Name))
			c.push(2)
		case local:
			if len(n.Args) == 0 {
				c.emit(OpCall0Local, slot, 0)
				c.push(1)
				return
			}
			c.emit(OpCalleeLocal, slot, 0)
			c.push(2)
		default:
			c.emit(OpUndef, 0, 0)
			c.push(1)
			c.expr(n.Callee)
		}
	default:
		c.emit(OpUndef, 0, 0)
		c.push(1)
		c.expr(n.Callee)
	}
	for _, a := range n.Args {
		c.expr(a)
	}
	c.emit(OpCall, int32(len(n.Args)), 0)
	c.pop(len(n.Args) + 2)
	c.push(1)
}

// localSlot reports whether e is a resolved reference into the current
// frame (hops 0) that the fused local opcodes may read, returning its slot:
// any but the function's own `arguments`.
func (c *compiler) localSlot(e ast.Expr) (int32, bool) {
	id, ok := e.(*ast.Ident)
	_, own := c.ownArguments(e)
	if !ok || own || !id.Ref.Valid() || id.Ref.Hops() != 0 {
		return 0, false
	}
	return int32(id.Ref.Slot()), true
}

// literalConst extracts the constant value of a literal operand, if e is
// one.
func literalConst(e ast.Expr) (Const, bool) {
	switch n := e.(type) {
	case *ast.Number:
		return NumberConst(n.Value), true
	case *ast.Str:
		return StringConst(n.Value), true
	case *ast.Bool:
		return BoolConst(n.Value), true
	}
	return Const{}, false
}
