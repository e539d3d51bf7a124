package interp

import (
	"errors"
	"sync"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/bytecode"
)

// This file is the bytecode execution engine: a flat fetch–execute loop
// over the instruction stream internal/bytecode compiles from function
// bodies. It shares everything else with the tree-walker — Value
// representation, Env frames, shapes, the per-site inline caches, the
// engine cost model — so the two engines differ only in dispatch. The
// tree-walker remains the substrate for global-frame code (a program's and
// an eval'd fragment's top-level statements) and for the functions the
// compiler refuses; a chunk, once entered, never calls it.

// ErrStepBudget aborts execution when Options.MaxSteps is exhausted. Both
// engines check the budget at the same statement boundaries, so a budgeted
// run diverges in neither output nor completion — the property the
// differential fuzz harness relies on.
var ErrStepBudget = errors.New("interp: step budget exhausted")

// forInIter is the reified state of a for-in loop: the snapshot of
// enumerable keys taken at loop entry (mutation during iteration does not
// grow the walk, as in the tree-walker).
type forInIter struct {
	keys []string
	i    int
}

// iterValue wraps a for-in iterator as an engine-internal Value for the
// operand stack. It never escapes the dispatch loop: OpForInInit pushes it,
// OpForInNext reads it, and the exit path pops it.
func iterValue(it *forInIter) Value {
	return Value{tag: tagIter, ptr: unsafe.Pointer(it)}
}

func (v Value) iter() *forInIter { return (*forInIter)(v.ptr) }

// tryFrame is one active try statement in a chunk invocation: where a throw
// lands — the catch body (catchPC, -1 for none or once that body is running)
// or else the finally block (finPC, -1 for none) — and the operand-stack and
// environment depths execution resumes at.
type tryFrame struct {
	catchPC  int32
	finPC    int32
	sp       int
	envDepth int
}

// rethrow, where a finally block's pending completion holds the pc to resume
// at, says the completion is the throw of the value in the slot beneath.
const rethrow = -1

// chunk is a compiled function body plus its constant pool: the
// bytecode.Chunk's typed constants converted to tagged Values exactly once,
// so OpConst is a single indexed copy with no representation check. Constant
// Values hold no realm state and the dispatch loop only reads a chunk, so
// one chunk serves every realm that runs the function.
type chunk struct {
	*bytecode.Chunk
	consts []Value
}

// constValue converts one compiler constant into the tagged representation.
func constValue(c bytecode.Const) Value {
	switch c.Kind {
	case bytecode.ConstNumber:
		return NumberValue(c.Num)
	case bytecode.ConstString:
		return StringValue(c.Str)
	case bytecode.ConstBool:
		return BoolValue(c.Num != 0)
	case bytecode.ConstNull:
		return Null
	}
	return Undefined
}

// chunkFor returns fn's chunk, compiling it on the first call any realm
// makes and publishing it on the node: realms sharing a resolved tree share
// its chunks, and a chunk is collected with its tree. A rejected function
// publishes a nil *chunk, so the tree-walker runs it without another attempt.
func chunkFor(fn *ast.Func) *chunk {
	if code := fn.Code.Load(); code != nil {
		return code.(*chunk)
	}
	var ch *chunk
	if bc := bytecode.Compile(fn); bc != nil {
		ch = &chunk{Chunk: bc, consts: make([]Value, len(bc.Consts))}
		for i, c := range bc.Consts {
			ch.consts[i] = constValue(c)
		}
	}
	fn.Code.CompareAndSwap(nil, ch) // racing first calls may each compile; one result wins
	return fn.Code.Load().(*chunk)
}

// ChunkRuns counts this realm's chunk invocations, the evidence of which
// engine ran it; compilations are no realm's figure now that chunks are shared.
func (in *Interp) ChunkRuns() uint64 { return in.chunkRuns }

// opStack is an operand-stack arena. Continuations are heap frames, so
// between turns nothing of a guest is on the Go stack and no operand window
// is live: a realm borrows an arena from opStacks only for as long as its
// outermost chunk call is running.
type opStack struct {
	buf  []Value
	top  int // next free slot of buf
	high int // highest top since buf was last all-zero
}

// Arenas start small: most programs peak under 500 slots.
var opStacks = sync.Pool{New: func() any { return &opStack{buf: make([]Value, 64)} }}

// runChunk executes a compiled function body in env (already laid out by
// Call: parameters, this, new.target, arguments, hoisted declarations).
// It returns the completion the tree-walker's Call epilogue would have
// produced: (value, nil) for return/fall-off, or the propagating error.
func (in *Interp) runChunk(ch *chunk, env *Env) (Value, error) {
	in.chunkRuns++

	// Operand stack: a window of the borrowed arena, as a slice of its own.
	st := in.ops
	outermost := st == nil
	if outermost {
		st = opStacks.Get().(*opStack)
		in.ops = st
	}
	if st.top+ch.MaxStack > len(st.buf) {
		// Grow, at least doubling. Running frames keep their windows of the
		// old buffer: nothing is copied, and it dies with the last of them.
		st.buf, st.top, st.high = make([]Value, 2*len(st.buf)+ch.MaxStack), 0, 0
	}
	buf, mark := st.buf, st.top
	st.top += ch.MaxStack
	st.high = max(st.high, st.top)
	stack := buf[mark:st.top:st.top]
	defer func() {
		// Every later frame has returned: the arena is back to where this
		// frame found it, or, if it grew meanwhile, to an empty new buffer.
		if len(st.buf) != len(buf) {
			mark = 0
		}
		st.top = mark
		if outermost {
			// Zeroed, so that a pooled arena pins none of this realm's objects.
			in.ops = nil
			clear(st.buf[:st.high])
			st.top, st.high = 0, 0
			if len(st.buf) <= 1<<16 { // past 1.5 MB, a deep recursion's: dropped
				opStacks.Put(st)
			}
		}
	}()

	var tries []tryFrame
	if ch.MaxTries > 0 {
		tries = make([]tryFrame, 0, ch.MaxTries)
	}

	code := ch.Code
	pc := 0
	sp := 0
	envDepth := 0
	var err error

loop:
	for {
		ins := code[pc]
		pc++
		switch ins.Op {
		case bytecode.OpStmt:
			in.Steps += uint64(ins.A)
			in.chargeStmt(int(ins.A), ins.B != 0)
			if in.Steps > in.stepLimit {
				if err := in.stepBoundary(); err != nil {
					return Undefined, err
				}
			}

		case bytecode.OpConst:
			stack[sp] = ch.consts[ins.A]
			sp++
		case bytecode.OpUndef:
			stack[sp] = Undefined
			sp++
		case bytecode.OpNull:
			stack[sp] = Null
			sp++
		case bytecode.OpTrue:
			stack[sp] = True
			sp++
		case bytecode.OpFalse:
			stack[sp] = False
			sp++
		case bytecode.OpPop:
			sp--
		case bytecode.OpDup:
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.OpDup2:
			stack[sp] = stack[sp-2]
			stack[sp+1] = stack[sp-1]
			sp += 2
		case bytecode.OpDupX1:
			t := stack[sp-1]
			stack[sp-1] = stack[sp-2]
			stack[sp-2] = t
			stack[sp] = t
			sp++
		case bytecode.OpDupX2:
			t := stack[sp-1]
			stack[sp-1] = stack[sp-2]
			stack[sp-2] = stack[sp-3]
			stack[sp-3] = t
			stack[sp] = t
			sp++

		case bytecode.OpGetLocal:
			stack[sp] = env.slots[ins.A]
			sp++
		case bytecode.OpSetLocal:
			sp--
			env.slots[ins.A] = stack[sp]
		case bytecode.OpGetRef:
			stack[sp] = env.GetRef(ast.Ref(uint32(ins.A)))
			sp++
		case bytecode.OpSetRef:
			sp--
			env.SetRef(ast.Ref(uint32(ins.A)), stack[sp])
		case bytecode.OpGetGlobal:
			if site := uint32(ins.A); site != 0 {
				if c := in.icCellAt(site); c != nil {
					stack[sp] = c.v
					sp++
					break
				}
			}
			v, e := in.globalMiss(ch.Names[ins.B], uint32(ins.A))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpSetGlobal:
			sp--
			v := stack[sp]
			if site := uint32(ins.A); site != 0 {
				if c := in.icCellAt(site); c != nil {
					c.v = v
					break
				}
			}
			in.setGlobal(ch.Names[ins.B], uint32(ins.A), v)
		case bytecode.OpGetDyn:
			name := ch.Names[ins.B]
			v, ok := env.Lookup(name)
			if !ok {
				err = in.Throw("ReferenceError", "%s is not defined", name)
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpSetDyn:
			sp--
			in.setByName(env, ch.Names[ins.B], stack[sp])
		case bytecode.OpTypeofGlobal:
			if c := in.globalCell(ch.Names[ins.B], uint32(ins.A)); c != nil {
				stack[sp] = typeOfValue(c.v)
			} else {
				stack[sp] = typeofUndefined
			}
			sp++
		case bytecode.OpTypeofDyn:
			if v, ok := env.Lookup(ch.Names[ins.B]); ok {
				stack[sp] = typeOfValue(v)
			} else {
				stack[sp] = typeofUndefined
			}
			sp++
		case bytecode.OpThisDyn:
			if v, ok := env.Lookup("this"); ok {
				stack[sp] = v
			} else {
				stack[sp] = Undefined
			}
			sp++
		case bytecode.OpNewTargetDyn:
			if v, ok := env.Lookup("new.target"); ok {
				stack[sp] = v
			} else {
				stack[sp] = Undefined
			}
			sp++

		case bytecode.OpClosure:
			stack[sp] = ObjectValue(in.makeFunction(ch.Funcs[ins.A], env))
			sp++
		case bytecode.OpArray:
			n := int(ins.A)
			elems := make([]Value, n)
			copy(elems, stack[sp-n:sp])
			sp -= n
			in.chargeAlloc()
			stack[sp] = ObjectValue(in.NewArray(elems))
			sp++
		case bytecode.OpNewObject:
			in.chargeAlloc()
			stack[sp] = ObjectValue(in.NewPlainObject())
			sp++
		case bytecode.OpSetProp:
			sp--
			// Object-literal property: same meter charge as the tree-walker's
			// literal path, so a budgeted guest dies identically on both
			// engines.
			in.chargeMem(memPropBytes)
			stack[sp-1].Obj().SetOwn(ch.Names[ins.A], stack[sp])
		case bytecode.OpSetAccessor:
			acc := ch.Accessors[ins.A]
			in.chargeMem(memPropBytes) // literal accessor prop, as OpSetProp
			fn := in.makeFunction(ch.Funcs[acc.Fn], env)
			obj := stack[sp-1].Obj()
			key := ch.Names[acc.Name]
			var getter, setter *Object
			if slot := obj.Own(key); slot != nil {
				getter, setter = slot.Getter, slot.Setter
			}
			if acc.Setter {
				setter = fn
			} else {
				getter = fn
			}
			obj.SetAccessor(key, getter, setter, true)

		case bytecode.OpGetArguments:
			stack[sp] = in.buildArguments(env.slotRef(ast.Ref(uint32(ins.C))))
			sp++
		case bytecode.OpArgsLen:
			slot := env.slotRef(ast.Ref(uint32(ins.C)))
			if slot.tag == tagArgs {
				stack[sp] = NumberValue(float64(slot.slen))
				sp++
				continue
			}
			stack[sp] = *slot
			sp++
			fallthrough
		case bytecode.OpGetMember:
			v, e := in.getMemberSite(stack[sp-1], ch.Names[ins.A], uint32(ins.B))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp-1] = v
		case bytecode.OpSetMember:
			base := stack[sp-1]
			v := stack[sp-2]
			sp -= 2
			if e := in.setMemberSite(base, ch.Names[ins.A], v, uint32(ins.B)); e != nil {
				err = e
				goto fail
			}
		case bytecode.OpSetMemberKeep:
			v := stack[sp-1]
			base := stack[sp-2]
			sp -= 2
			if e := in.setMemberSite(base, ch.Names[ins.A], v, uint32(ins.B)); e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpGetMethod:
			v, e := in.getMemberSite(stack[sp-1], ch.Names[ins.A], uint32(ins.B))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpGetMethodIndex:
			idx := stack[sp-1]
			base := stack[sp-2]
			v, ok := in.getElemFast(base, idx)
			if !ok {
				key, e := in.ToStringValue(idx)
				if e != nil {
					err = e
					goto fail
				}
				v, e = in.GetMember(base, key)
				if e != nil {
					err = e
					goto fail
				}
			}
			stack[sp-1] = v
		case bytecode.OpGetArg:
			slot := env.slotRef(ast.Ref(uint32(ins.C)))
			idx := stack[sp-1]
			if i := int(idx.num); slot.tag == tagArgs && idx.tag == TagNumber && uint(i) < uint(slot.slen) && float64(i) == idx.num {
				stack[sp-1] = slot.argVector()[i]
				continue
			}
			stack[sp-1] = in.buildArguments(slot)
			stack[sp] = idx
			sp++
			fallthrough
		case bytecode.OpGetIndex:
			idx := stack[sp-1]
			base := stack[sp-2]
			sp--
			v, ok := in.getElemFast(base, idx)
			if !ok {
				key, e := in.ToStringValue(idx)
				if e != nil {
					err = e
					goto fail
				}
				v, e = in.GetMember(base, key)
				if e != nil {
					err = e
					goto fail
				}
			}
			stack[sp-1] = v
		case bytecode.OpSetIndex:
			idx := stack[sp-1]
			base := stack[sp-2]
			v := stack[sp-3]
			sp -= 3
			if e := in.setIndexed(base, idx, v); e != nil {
				err = e
				goto fail
			}
		case bytecode.OpSetIndexKeep:
			v := stack[sp-1]
			idx := stack[sp-2]
			base := stack[sp-3]
			sp -= 3
			if e := in.setIndexed(base, idx, v); e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpToPropKey:
			if stack[sp-1].IsObject() {
				key, e := in.ToStringValue(stack[sp-1])
				if e != nil {
					err = e
					goto fail
				}
				stack[sp-1] = StringValue(key)
			}
		case bytecode.OpDeleteMember:
			sp--
			in.deleteKey(stack[sp], ch.Names[ins.A])
			stack[sp] = True
			sp++
		case bytecode.OpDeleteIndex:
			idx := stack[sp-1]
			base := stack[sp-2]
			sp -= 2
			key, e := in.ToStringValue(idx)
			if e != nil {
				err = e
				goto fail
			}
			in.deleteKey(base, key)
			stack[sp] = True
			sp++

		case bytecode.OpCall:
			argc := int(ins.A)
			v, e := in.Call(stack[sp-argc-1], stack[sp-argc-2], stack[sp-argc:sp], Undefined)
			if e != nil {
				err = e
				goto fail
			}
			sp -= argc + 1
			stack[sp-1] = v
		case bytecode.OpNew:
			argc := int(ins.A)
			v, e := in.Construct(stack[sp-argc-1], stack[sp-argc:sp])
			if e != nil {
				err = e
				goto fail
			}
			sp -= argc
			stack[sp-1] = v
		case bytecode.OpReturn:
			return stack[sp-1], nil
		case bytecode.OpReturnUndef:
			return Undefined, nil

		case bytecode.OpJump:
			pc = int(ins.A)
		case bytecode.OpJumpIfFalse:
			sp--
			if !ToBoolean(stack[sp]) {
				pc = int(ins.A)
			}
		case bytecode.OpJumpIfTrue:
			sp--
			if ToBoolean(stack[sp]) {
				pc = int(ins.A)
			}
		case bytecode.OpJumpIfFalsyKeep:
			if !ToBoolean(stack[sp-1]) {
				pc = int(ins.A)
			} else {
				sp--
			}
		case bytecode.OpJumpIfTruthyKeep:
			if ToBoolean(stack[sp-1]) {
				pc = int(ins.A)
			} else {
				sp--
			}

		case bytecode.OpAdd:
			l, r := stack[sp-2], stack[sp-1]
			if l.tag == TagNumber && r.tag == TagNumber {
				sp--
				stack[sp-1] = NumberValue(l.num + r.num)
				break
			}
			if l.tag == TagString && r.tag == TagString {
				v, e := in.concatStrings(l.Str(), r.Str())
				if e != nil {
					err = e
					goto fail
				}
				sp--
				stack[sp-1] = v
				break
			}
			v, e := in.applyBinary("+", l, r)
			if e != nil {
				err = e
				goto fail
			}
			sp--
			stack[sp-1] = v
		case bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv:
			l, r := stack[sp-2], stack[sp-1]
			if l.tag == TagNumber && r.tag == TagNumber {
				sp--
				switch ins.Op {
				case bytecode.OpSub:
					stack[sp-1] = NumberValue(l.num - r.num)
				case bytecode.OpMul:
					stack[sp-1] = NumberValue(l.num * r.num)
				default:
					stack[sp-1] = NumberValue(l.num / r.num)
				}
				break
			}
			v, e := in.applyBinary(binOpName[ins.Op], l, r)
			if e != nil {
				err = e
				goto fail
			}
			sp--
			stack[sp-1] = v
		case bytecode.OpLt, bytecode.OpGt, bytecode.OpLe, bytecode.OpGe:
			l, r := stack[sp-2], stack[sp-1]
			if l.tag == TagNumber && r.tag == TagNumber {
				sp--
				// NaN comparisons are false on every operator, which
				// Go's float compare already gives.
				switch ins.Op {
				case bytecode.OpLt:
					stack[sp-1] = BoolValue(l.num < r.num)
				case bytecode.OpGt:
					stack[sp-1] = BoolValue(l.num > r.num)
				case bytecode.OpLe:
					stack[sp-1] = BoolValue(l.num <= r.num)
				default:
					stack[sp-1] = BoolValue(l.num >= r.num)
				}
				break
			}
			v, e := in.applyBinary(binOpName[ins.Op], l, r)
			if e != nil {
				err = e
				goto fail
			}
			sp--
			stack[sp-1] = v
		case bytecode.OpStrictEq:
			sp--
			stack[sp-1] = BoolValue(StrictEquals(stack[sp-1], stack[sp]))
		case bytecode.OpStrictNe:
			sp--
			stack[sp-1] = BoolValue(!StrictEquals(stack[sp-1], stack[sp]))
		case bytecode.OpEq, bytecode.OpNe:
			eq, e := in.looseEquals(stack[sp-2], stack[sp-1])
			if e != nil {
				err = e
				goto fail
			}
			sp--
			if ins.Op == bytecode.OpNe {
				eq = !eq
			}
			stack[sp-1] = BoolValue(eq)
		case bytecode.OpMod, bytecode.OpPow, bytecode.OpBitAnd, bytecode.OpBitOr,
			bytecode.OpBitXor, bytecode.OpShl, bytecode.OpShr, bytecode.OpUshr,
			bytecode.OpInstanceof, bytecode.OpIn:
			v, e := in.applyBinary(binOpName[ins.Op], stack[sp-2], stack[sp-1])
			if e != nil {
				err = e
				goto fail
			}
			sp--
			stack[sp-1] = v

		case bytecode.OpNot:
			stack[sp-1] = BoolValue(!ToBoolean(stack[sp-1]))
		case bytecode.OpNeg:
			if stack[sp-1].tag == TagNumber {
				stack[sp-1] = NumberValue(-stack[sp-1].num)
				break
			}
			f, e := in.ToNumber(stack[sp-1])
			if e != nil {
				err = e
				goto fail
			}
			stack[sp-1] = NumberValue(-f)
		case bytecode.OpToNumber:
			if stack[sp-1].tag == TagNumber {
				break
			}
			f, e := in.ToNumber(stack[sp-1])
			if e != nil {
				err = e
				goto fail
			}
			stack[sp-1] = NumberValue(f)
		case bytecode.OpBitNot:
			f, e := in.ToNumber(stack[sp-1])
			if e != nil {
				err = e
				goto fail
			}
			stack[sp-1] = NumberValue(float64(^ToInt32(f)))
		case bytecode.OpVoid:
			stack[sp-1] = Undefined
		case bytecode.OpTypeofVal:
			stack[sp-1] = typeOfValue(stack[sp-1])

		case bytecode.OpChargeBranch:
			in.chargeBranch()

		case bytecode.OpStrictEqConst:
			stack[sp-1] = BoolValue(StrictEquals(stack[sp-1], ch.consts[ins.A]))
		case bytecode.OpGlobalEqConst:
			var v Value
			found := false
			if site := uint32(ins.A); site != 0 {
				if c := in.icCellAt(site); c != nil {
					v, found = c.v, true
				}
			}
			if !found {
				var e error
				v, e = in.globalMiss(ch.Names[ins.B], uint32(ins.A))
				if e != nil {
					err = e
					goto fail
				}
			}
			stack[sp] = BoolValue(StrictEquals(v, ch.consts[ins.C]))
			sp++
		case bytecode.OpGetLocalMember:
			base := env.slots[ins.A]
			v, e := in.getMemberSite(base, ch.Names[ins.B], uint32(ins.C))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpGetLocalMethod:
			base := env.slots[ins.A]
			v, e := in.getMemberSite(base, ch.Names[ins.B], uint32(ins.C))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = base
			stack[sp+1] = v
			sp += 2
		case bytecode.OpCalleeGlobal:
			stack[sp] = Undefined
			sp++
			if site := uint32(ins.A); site != 0 {
				if c := in.icCellAt(site); c != nil {
					stack[sp] = c.v
					sp++
					break
				}
			}
			v, e := in.globalMiss(ch.Names[ins.B], uint32(ins.A))
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpCalleeLocal:
			stack[sp] = Undefined
			stack[sp+1] = env.slots[ins.A]
			sp += 2
		case bytecode.OpCall0Global:
			var fnv Value
			found := false
			if site := uint32(ins.A); site != 0 {
				if c := in.icCellAt(site); c != nil {
					fnv, found = c.v, true
				}
			}
			if !found {
				var e error
				fnv, e = in.globalMiss(ch.Names[ins.B], uint32(ins.A))
				if e != nil {
					err = e
					goto fail
				}
			}
			v, e := in.Call(fnv, Undefined, nil, Undefined)
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpJumpGlobalNeConst:
			var v Value
			found := false
			if site := uint32(ins.B); site != 0 {
				if c := in.icCellAt(site); c != nil {
					v, found = c.v, true
				}
			}
			if !found {
				var e error
				v, e = in.globalMiss(ch.Names[ch.GuardNames[int32(pc-1)]], uint32(ins.B))
				if e != nil {
					err = e
					goto fail
				}
			}
			if !StrictEquals(v, ch.consts[ins.C]) {
				pc = int(ins.A)
			}
		case bytecode.OpConstSetLocal:
			env.slots[ins.B] = ch.consts[ins.A]
		case bytecode.OpClosureSetLocal:
			env.slots[ins.B] = ObjectValue(in.makeFunction(ch.Funcs[ins.A], env))
		case bytecode.OpSetLocalStmt:
			sp--
			env.slots[ins.A] = stack[sp]
			in.Steps += uint64(ins.B)
			in.chargeStmt(int(ins.B), ins.C != 0)
			if in.Steps > in.stepLimit {
				if err := in.stepBoundary(); err != nil {
					return Undefined, err
				}
			}
		case bytecode.OpJumpIfFalseStmt:
			sp--
			if !ToBoolean(stack[sp]) {
				pc = int(ins.A)
				break
			}
			in.Steps += uint64(ins.B)
			in.chargeStmt(int(ins.B), ins.C != 0)
			if in.Steps > in.stepLimit {
				if err := in.stepBoundary(); err != nil {
					return Undefined, err
				}
			}
		case bytecode.OpStmtGetLocal:
			in.Steps += uint64(ins.B)
			in.chargeStmt(int(ins.B), ins.C != 0)
			if in.Steps > in.stepLimit {
				if err := in.stepBoundary(); err != nil {
					return Undefined, err
				}
			}
			stack[sp] = env.slots[ins.A]
			sp++
		case bytecode.OpStmtConst:
			in.Steps += uint64(ins.B)
			in.chargeStmt(int(ins.B), ins.C != 0)
			if in.Steps > in.stepLimit {
				if err := in.stepBoundary(); err != nil {
					return Undefined, err
				}
			}
			stack[sp] = ch.consts[ins.A]
			sp++
		case bytecode.OpCall0Local:
			fnv := env.slots[ins.A]
			v, e := in.Call(fnv, Undefined, nil, Undefined)
			if e != nil {
				err = e
				goto fail
			}
			stack[sp] = v
			sp++
		case bytecode.OpThrow:
			sp--
			in.chargeThrow()
			err = &Thrown{Value: stack[sp]}
			goto fail
		case bytecode.OpTry:
			in.chargeTry()
			tries = append(tries, tryFrame{catchPC: ins.A, finPC: ins.B, sp: sp, envDepth: envDepth})
		case bytecode.OpPopTry:
			tries = tries[:len(tries)-1]
		case bytecode.OpEnterFinally:
			f := tries[len(tries)-1]
			tries = tries[:len(tries)-1]
			for envDepth > f.envDepth {
				env = env.parent
				envDepth--
			}
			ret := Undefined
			if ins.C != 0 {
				ret = stack[sp-1]
			}
			stack[f.sp] = ret
			stack[f.sp+1] = NumberValue(float64(ins.B))
			sp = f.sp + 2
			pc = int(ins.A)
		case bytecode.OpEndFinally:
			sp--
			if resume := int(stack[sp].num); resume != rethrow {
				pc = resume
				break
			}
			// The throw the block interrupted goes on as it was: its value,
			// no second ThrowCost.
			err = &Thrown{Value: stack[sp-1]}
			goto fail
		case bytecode.OpEnterCatch:
			sp--
			env = NewSlotEnv(env, ch.Scopes[ins.A])
			env.slots[0] = stack[sp]
			envDepth++
		case bytecode.OpLeaveScope:
			env = env.parent
			envDepth--

		case bytecode.OpForInInit:
			it := &forInIter{}
			if o := stack[sp-1].Obj(); o != nil {
				it.keys = o.OwnKeys()
			}
			stack[sp-1] = iterValue(it)
		case bytecode.OpForInNext:
			it := stack[sp-1].iter()
			if it.i >= len(it.keys) {
				pc = int(ins.A)
			} else {
				stack[sp] = StringValue(it.keys[it.i])
				it.i++
				sp++
			}

		default:
			return Undefined, errors.New("interp: unknown opcode " + ins.Op.String())
		}
		continue

	fail:
		// A throw unwinds to the innermost handler: its catch body, or its
		// finally block with the throw pending. Nothing else is a completion
		// — a budget abort, a kill, a host error — and no guest code, a
		// finally block included, runs on its way out (execTry's rule too).
		t, thrown := err.(*Thrown)
		for n := len(tries); thrown && n > 0; n = len(tries) {
			f := tries[n-1]
			switch {
			case f.catchPC >= 0:
				if f.finPC >= 0 {
					tries[n-1].catchPC = -1 // stays, to guard the catch body
				} else {
					tries = tries[:n-1]
				}
				stack[f.sp] = t.Value
				sp = f.sp + 1
				pc = int(f.catchPC)
			case f.finPC >= 0:
				tries = tries[:n-1]
				stack[f.sp] = t.Value
				stack[f.sp+1] = NumberValue(rethrow)
				sp = f.sp + 2
				pc = int(f.finPC)
			default:
				tries = tries[:n-1]
				continue
			}
			for envDepth > f.envDepth {
				env = env.parent
				envDepth--
			}
			err = nil
			continue loop
		}
		return Undefined, err
	}
}

// globalMiss reads a proved-global reference after an inline-cache miss
// (globalCell fills the cache), or throws the ReferenceError.
func (in *Interp) globalMiss(name string, site uint32) (Value, error) {
	c := in.globalCell(name, site)
	if c == nil {
		return Undefined, in.Throw("ReferenceError", "%s is not defined", name)
	}
	return c.v, nil
}

// setIndexed writes base[idx] = v for a computed reference whose index was
// evaluated (and, for objects, stringified) already — the bytecode
// counterpart of setOnce.
func (in *Interp) setIndexed(base, idx, v Value) error {
	if in.setElemFast(base, idx, v) {
		return nil
	}
	key, err := in.ToStringValue(idx)
	if err != nil {
		return err
	}
	return in.setMemberSite(base, key, v, 0)
}

// deleteKey implements the delete operator's member path (evalUnary's
// delete case), shared by both delete opcodes.
func (in *Interp) deleteKey(base Value, key string) {
	obj := base.Obj()
	if obj == nil {
		return
	}
	if obj.Class == "Array" || obj.Class == "Arguments" {
		// Element storage is separate from named properties; deleting an
		// element must work whether or not named properties exist.
		if i, isIdx := arrayIndex(key); isIdx && i < len(obj.Elems) {
			obj.Elems[i] = Undefined
			return
		}
	}
	obj.Delete(key)
}

// binOpName maps operator opcodes to the tree-walker's operator strings for
// the generic applyBinary fallback.
var binOpName = map[bytecode.Op]string{
	bytecode.OpAdd: "+", bytecode.OpSub: "-", bytecode.OpMul: "*",
	bytecode.OpDiv: "/", bytecode.OpMod: "%", bytecode.OpPow: "**",
	bytecode.OpLt: "<", bytecode.OpGt: ">", bytecode.OpLe: "<=",
	bytecode.OpGe: ">=", bytecode.OpBitAnd: "&", bytecode.OpBitOr: "|",
	bytecode.OpBitXor: "^", bytecode.OpShl: "<<", bytecode.OpShr: ">>",
	bytecode.OpUshr: ">>>", bytecode.OpInstanceof: "instanceof",
	bytecode.OpIn: "in",
}
