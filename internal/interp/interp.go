package interp

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/eventloop"
)

// Options configures a fresh interpreter.
type Options struct {
	// Engine selects the browser cost profile the paper's figures charge
	// work units by; nil means no cost model, which is how serving and the
	// benchmark run (and a stack of defaultMaxDepth frames).
	Engine *engine.Profile
	// Clock supplies Date.now and the event loop's time; nil means a real
	// clock.
	Clock eventloop.Clock
	// Loop, when non-nil, backs setTimeout. Programs that never call
	// setTimeout can run without one.
	Loop *eventloop.Loop
	// Out receives console.log output; nil discards it.
	Out io.Writer
	// Seed seeds Math.random for reproducible benchmarks.
	Seed uint64
	// Bytecode dispatches function bodies through the flat bytecode engine
	// (internal/bytecode + dispatch.go) instead of the tree-walker.
	// Global-frame code — a program's and an eval'd fragment's top-level
	// statements — always runs on the tree-walker; the two engines are
	// observationally identical.
	Bytecode bool
	// MaxSteps aborts execution with ErrStepBudget once the statement
	// counter exceeds it; 0 means unlimited. Both engines check at the
	// same statement boundaries (the differential fuzz harness depends on
	// budgeted runs not diverging).
	MaxSteps uint64
	// QuantumSteps arms a cooperative scheduling quantum: after that many
	// statements, OnQuantum fires once at the next statement boundary.
	// Unlike MaxSteps this is not an abort — the program keeps running —
	// but the hook typically requests a pause (rt.Pause), so the program
	// parks at its next $suspend point. The supervisor re-arms the
	// quantum before every scheduling turn (ArmQuantum); 0 disables it.
	QuantumSteps uint64
	// OnQuantum is the quantum-expiry hook. It runs on the executing
	// goroutine, at the same statement boundaries where MaxSteps is
	// checked, on both engines.
	OnQuantum func()
	// MemBudget aborts execution with ErrMemLimit once the realm's
	// allocation meter (mem.go) exceeds this many bytes; 0 means unmetered.
	// Checked at the same statement boundaries as MaxSteps, on both
	// engines.
	MemBudget uint64
	// ProfileEvery arms the guest-level sampling profiler (profile.go):
	// every that many statements the JS call stack is sampled and the
	// interval's statement count attributed to it. 0 leaves the profiler
	// off.
	ProfileEvery uint64
}

// Interp is one JavaScript realm: global environment, builtin prototypes,
// and execution state.
type Interp struct {
	Engine *engine.Profile
	Clock  eventloop.Clock
	Loop   *eventloop.Loop
	Global *Env

	out io.Writer
	rng uint64

	depth    int32 // int32s, one word for both: Interp stays in its size class (TestValueLayout)
	maxDepth int32
	atomic   int

	// Steps counts statements executed, used by tests and by the harness to
	// size workloads.
	Steps uint64

	sink uint64 // cost-model spin target; opaque to the optimizer

	// EvalHook compiles source for the eval() builtin. The Stopify core
	// installs a hook that runs the string through the full pipeline (§4.3);
	// without a hook, eval throws. The returned program runs in this realm,
	// so a hook that resolves it numbers its sites from Sites.
	EvalHook func(src string) (*ast.Program, error)

	// Uncaught receives exceptions that escape event-loop tasks. When nil,
	// such an exception panics — the moral equivalent of a crashed page.
	Uncaught func(error)

	// Inline caches, indexed by the site IDs internal/resolve assigns and
	// sized by ReserveSites to the count in sites (shape.go). Owned per
	// realm so two interpreters executing the same resolved tree never
	// observe each other's cache state.
	icGet    []getIC
	icSet    []setIC
	icGlobal []*cell
	sites    ast.Sites

	// Engine state: ops is the arena (operand stack, frame freelists and
	// the tree-walker's scratch, env.go) on loan while a Call or a
	// program's top level is on the Go stack. Chunks live on the tree.
	maxSteps   uint64
	quantumEnd uint64 // Steps value at which onQuantum fires; 0 = disarmed
	stepLimit  uint64 // min(maxSteps, quantumEnd-1); MaxUint64 = no check armed
	memUsed    uint64 // bytes charged by the allocation meter (mem.go)
	memBudget  uint64 // allocation budget; 0 = unmetered
	onQuantum  func()
	prof       *profState // sampling profiler; nil = disarmed (profile.go)
	ops        *opStack
	chunkRuns  uint64
	poll       *Poll // the runtime's poll and intrinsic table (SetPoll); nil in a realm no runtime drives

	bytecode      bool     // guests run as chunks (dispatch.go); shares a word with the next three: Interp is 360 B (TestValueLayout)
	quantumHeld   bool     // HoldQuantum: the hook cannot fire
	Mode          ast.Mode // rt.setMode: what `$mode` reads; a mode guard (OpJumpModeNe), a helper call (helpers.go) and a restore-mode entry (Call) test it
	argsBuilt     uint32   // arguments objects built (ArgumentsBuilt)
	quantumHeldAt uint64   // Steps since which the hold has cost the quantum nothing

	objectProto   *Object
	functionProto *Object
	arrayProto    *Object
	stringProto   *Object
	numberProto   *Object
	booleanProto  *Object
	errorProto    *Object
	dateProto     *Object

	// RunTimer runs a due setTimeout callback. Nil calls it directly, as a
	// browser does; the Stopify runtime runs it under its driver, so a
	// callback can yield, be paused and be killed like $main. Timer handles,
	// cancellation and the pending queue are the event loop's.
	RunTimer func(fn Value, args []Value)
}

// defaultMaxDepth is the call-stack limit of a realm with no engine profile:
// deeper than any browser's, so a program runs as if the stack were unbounded.
const defaultMaxDepth = 100000

// New creates an interpreter with a fresh global environment.
func New(opts Options) *Interp {
	maxDepth := int32(defaultMaxDepth)
	if opts.Engine != nil {
		maxDepth = int32(min(opts.Engine.MaxStack, math.MaxInt32))
	}
	if opts.Clock == nil {
		opts.Clock = eventloop.NewRealClock()
	}
	in := &Interp{
		Engine:    opts.Engine,
		Clock:     opts.Clock,
		Loop:      opts.Loop,
		out:       opts.Out,
		rng:       opts.Seed*2862933555777941757 + 3037000493,
		maxDepth:  maxDepth,
		bytecode:  opts.Bytecode,
		maxSteps:  opts.MaxSteps,
		memBudget: opts.MemBudget,
		onQuantum: opts.OnQuantum,
	}
	if opts.QuantumSteps > 0 {
		in.quantumEnd = opts.QuantumSteps
	}
	if opts.ProfileEvery > 0 {
		in.prof = &profState{every: opts.ProfileEvery, next: opts.ProfileEvery, folded: make(map[string]uint64)}
	}
	in.recomputeStepLimit()
	in.Global = &Env{cells: make(map[string]*cell)}
	in.setupGlobals()
	return in
}

// recomputeStepLimit folds the three statement-boundary triggers — the hard
// MaxSteps abort, the soft quantum hook, and the allocation meter — into one
// threshold so the hot path stays a single compare (see stepBoundary).
// Disabled is MaxUint64, not 0: Steps can never exceed it, and 0 must remain
// a *live* threshold — ArmQuantum(1) means "fire at the very next
// statement", which is stepLimit 0 with the check `Steps > stepLimit`. An
// over-budget meter pins the threshold at 0 so nothing (a quantum re-arm
// across a resume) can slide the boundary check past a pending ErrMemLimit.
func (in *Interp) recomputeStepLimit() {
	if in.memBudget != 0 && in.memUsed > in.memBudget {
		in.stepLimit = 0
		return
	}
	lim := ^uint64(0)
	if in.maxSteps != 0 {
		lim = in.maxSteps
	}
	if in.quantumEnd != 0 && !in.quantumHeld && in.quantumEnd-1 < lim {
		lim = in.quantumEnd - 1
	}
	if in.prof != nil && in.prof.next != 0 && in.prof.next-1 < lim {
		lim = in.prof.next - 1
	}
	in.stepLimit = lim
}

// stepBoundary is the cold half of the statement-boundary check: it runs
// only when Steps has passed stepLimit and decides which trigger fired.
// The quantum hook is one-shot — it disarms before firing so a hook that
// does not re-arm (ArmQuantum) fires exactly once.
func (in *Interp) stepBoundary() error {
	if in.memBudget != 0 && in.memUsed > in.memBudget {
		return ErrMemLimit
	}
	if in.maxSteps != 0 && in.Steps > in.maxSteps {
		// A fused marker may have counted past the boundary that crossed the
		// budget; the count stops there, as the tree-walker's does.
		in.Steps = in.maxSteps + 1
		return ErrStepBudget
	}
	if in.prof != nil && in.prof.next != 0 && in.Steps >= in.prof.next {
		in.profSample() // every exit path below recomputes stepLimit
	}
	if in.quantumEnd != 0 && !in.quantumHeld && in.Steps >= in.quantumEnd {
		in.quantumEnd = 0
		in.recomputeStepLimit()
		if in.onQuantum != nil {
			in.onQuantum() // may re-arm via ArmQuantum
		}
		return nil
	}
	in.recomputeStepLimit()
	return nil
}

// ArmQuantum schedules the OnQuantum hook to fire at the statement boundary
// n statements from now, not counting statements run under HoldQuantum;
// n == 0 disarms. Must be called from the executing goroutine (between
// event-loop turns, or from the hook itself) — the supervisor arms it at the
// top of every scheduling turn it hands a guest.
func (in *Interp) ArmQuantum(n uint64) {
	if n == 0 {
		in.quantumEnd = 0
	} else {
		in.quantumEnd = in.Steps + n
	}
	in.quantumHeldAt = in.Steps
	in.recomputeStepLimit()
}

// HoldQuantum stops (true) or restarts (false) the quantum's clock. Held,
// statements count toward Steps, MaxSteps, the memory meter and the profiler,
// but the hook cannot fire, and the release moves its deadline out by as many
// statements as the hold lasted (rt.setMode). Executing goroutine only.
func (in *Interp) HoldQuantum(hold bool) {
	if hold == in.quantumHeld {
		return
	}
	in.quantumHeld = hold
	if hold {
		in.quantumHeldAt = in.Steps
	} else if in.quantumEnd != 0 {
		in.quantumEnd += in.Steps - in.quantumHeldAt
	}
	in.recomputeStepLimit()
}

// SetOnQuantum installs the quantum-expiry hook (executing goroutine only).
func (in *Interp) SetOnQuantum(fn func()) { in.onQuantum = fn }

// Poll is what a runtime lends its realm: the table its intrinsics are read
// from, and what lets a `$suspend()` site skip a call that would return at
// once (OpSitePoll, dispatch.go). Only the executing goroutine touches
// Intrinsics and Budget; Pause and Kill are set from any.
type Poll struct {
	// Intrinsics is what a marked runtime reference (ast.Intrinsic) reads:
	// the runtime's frame arrays ($stack, $rstack, $shadow), which a frame
	// instruction pushes or pops itself (frames.go), never through a
	// guest-replaceable Array.prototype method, and its natives, $suspend
	// among them. The mode is not here: it is Interp.Mode.
	Intrinsics [ast.NumIntrinsics]*Object
	// Budget is how many more calls may be skipped: calls the runtime knows
	// would neither yield nor read the clock. A skip spends one; the native
	// credits what was spent and sets it again.
	Budget int
	// Pause and Kill are the runtime's outstanding requests.
	Pause, Kill atomic.Bool
	// Pool holds frame arrays restoreFrame popped, cleared, for pushFrame to
	// reuse; Shared is set, for good, once a frame may be re-entered twice.
	Pool   []*Object
	Shared bool
}

// SetPoll installs the runtime's poll and intrinsic table.
func (in *Interp) SetPoll(p *Poll) { in.poll = p }

// table is the realm's poll, lent here when no runtime installed one.
func (in *Interp) table() *Poll {
	if in.poll == nil {
		in.poll = &Poll{}
	}
	return in.poll
}

// Intrinsic is the realm's runtime binding k: the mode's name, or the
// object the runtime's table holds. A realm with no runtime (a raw one) has
// none but the mode.
func (in *Interp) Intrinsic(k ast.Intrinsic) (Value, bool) {
	if k == ast.IntrinsicMode {
		return modeValues[in.Mode], true
	}
	if p := in.poll; p != nil && p.Intrinsics[k] != nil {
		return ObjectValue(p.Intrinsics[k]), true
	}
	return Undefined, false
}

// intrinsic is Intrinsic or the ReferenceError its name gives.
func (in *Interp) intrinsic(k ast.Intrinsic) (Value, error) {
	if v, ok := in.Intrinsic(k); ok {
		return v, nil
	}
	return Undefined, in.Throw("ReferenceError", "%s is not defined", ast.IntrinsicNames[k])
}

// modeValues is what `$mode` reads in each mode.
var modeValues = [...]Value{StringValue(ast.ModeNames[0]), StringValue(ast.ModeNames[1]), StringValue(ast.ModeNames[2])}

// The charge helpers spend the engine profile's work units at the operations
// whose relative costs the paper's figures compare (internal/engine). Each is
// one nil test on a realm with no profile, small enough to inline.

// chargeStmt charges n statements, and the profile's branch cost when the
// first of them is an if.
func (in *Interp) chargeStmt(n int, branch bool) {
	if p := in.Engine; p != nil {
		if branch {
			n += p.BranchCost
		}
		in.charge(p, n)
	}
}

func (in *Interp) chargeBranch() {
	if p := in.Engine; p != nil {
		in.charge(p, p.BranchCost)
	}
}

func (in *Interp) chargeTry() {
	if p := in.Engine; p != nil {
		in.charge(p, p.TryCost)
	}
}

func (in *Interp) chargeThrow() {
	if p := in.Engine; p != nil {
		in.charge(p, p.ThrowCost)
	}
}

func (in *Interp) chargeCall() {
	if p := in.Engine; p != nil {
		in.charge(p, p.CallCost)
	}
}

func (in *Interp) chargeNew() {
	if p := in.Engine; p != nil {
		in.charge(p, p.NewCost)
	}
}

// chargeAlloc charges an object, array or closure allocation.
func (in *Interp) chargeAlloc() {
	if p := in.Engine; p != nil {
		in.charge(p, p.ObjectCreateCost)
	}
}

func (in *Interp) chargeProp() {
	if p := in.Engine; p != nil {
		in.charge(p, p.PropCost)
	}
}

// charge spins units × p.Speed work units. The loop body is a data
// dependency on in.sink so the compiler cannot remove it. It stays out of
// line so that the helpers inline as a test and a call, not as a loop.
//
//go:noinline
func (in *Interp) charge(p *engine.Profile, units int) {
	s := in.sink
	for i := units * p.Speed; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
	}
	in.sink = s
}

// Depth reports the current JavaScript call depth; the Stopify runtime's
// deep-stack mode (§5.2) reads it.
func (in *Interp) Depth() int { return int(in.depth) }

// callBack is the one way host code calls guest code while guest frames lie
// below it: a valueOf or toString of a conversion, an accessor of a plain
// property access, a sort comparator, a map callback. The call runs in an
// atomic section. Continuations cannot unwind through a native Go frame, so
// the Stopify runtime defers suspension while any atomic section is active —
// the same reason real Stopify instruments runtime-library JavaScript instead
// of using native helpers (§6.4). A kill still lands inside one: it unwinds
// as a Go error.
func (in *Interp) callBack(fn, this Value, args []Value) (Value, error) {
	in.atomic++
	defer func() { in.atomic-- }()
	return in.Call(fn, this, args, Undefined)
}

// InAtomic reports whether a native callback section is active.
func (in *Interp) InAtomic() bool { return in.atomic > 0 }

// MaxDepth reports the engine's stack limit.
func (in *Interp) MaxDepth() int { return int(in.maxDepth) }

// Throw builds a Thrown error carrying a fresh Error object.
func (in *Interp) Throw(name, format string, args ...interface{}) error {
	return &Thrown{Value: ObjectValue(in.NewError(name, fmt.Sprintf(format, args...)))}
}

// NewError builds an Error object with the given name and message.
func (in *Interp) NewError(name, message string) *Object {
	in.chargeMem(memObjectBytes + 2*memPropBytes + len(name) + len(message))
	e := &Object{Class: ClassError, Proto: in.errorProto}
	e.ReserveProps(2)
	e.SetOwn("name", StringValue(name))
	e.SetOwn("message", StringValue(message))
	return e
}

// RunProgram hoists and executes a program in the global environment. The
// program went through internal/resolve (a function that did not ends the
// run with a host error when it is called), continuing this realm's site
// numbering (see ReserveSites): the first from a fresh allocator, any later
// one — an eval fragment, a REPL turn — from Sites.
func (in *Interp) RunProgram(prog *ast.Program) error {
	in.ReserveSites(prog.Sites)
	if in.ops == nil {
		// The top level tree-walks on the arena's scratch, as a call does.
		defer in.returnOps(in.borrowOps())
	}
	in.DefineIntrinsics(prog)
	in.hoistGlobals(prog.Body)
	return in.execStmts(prog.Body, in.Global)
}

// DefineGlobal installs a global binding (used by the Stopify runtime to
// expose its primitives).
func (in *Interp) DefineGlobal(name string, v Value) { in.Global.Define(name, v) }

// NewNative wraps a Go function as a callable JS object: one allocation,
// the header with its side record behind it (nativeObject).
func (in *Interp) NewNative(name string, fn NativeFunc) *Object {
	in.chargeMem(memObjectBytes)
	p := &nativeObject{side: sideRecord{fn: fn, name: name}}
	p.obj = Object{Class: ClassFunction, Proto: in.functionProto, side: &p.side}
	return &p.obj
}

// NewArray builds an array object around elems (not copied). The meter
// charges the element storage by capacity, so every builtin that returns a
// fresh array (slice, map, concat, split, ...) is metered here without a
// per-site charge.
func (in *Interp) NewArray(elems []Value) *Object {
	in.chargeMem(memObjectBytes + memValueBytes*cap(elems))
	return &Object{Class: ClassArray, Proto: in.arrayProto, Elems: elems}
}

// NewPlainObject builds an empty object with Object.prototype.
func (in *Interp) NewPlainObject() *Object {
	in.chargeMem(memObjectBytes)
	return NewObject(in.objectProto)
}

// newLiteral builds the object an n-property literal fills, its slot array
// sized to the literal (both engines: the walker's ast.Object, OpNewObject).
func (in *Interp) newLiteral(n int) *Object {
	o := in.NewPlainObject()
	o.ReserveProps(n)
	return o
}

// ---------------------------------------------------------------------------
// Hoisting
// ---------------------------------------------------------------------------

// hoistGlobals predeclares a program's vars (undefined) and function
// declarations in the global frame, but for the prelude's (DefineIntrinsics).
func (in *Interp) hoistGlobals(body []ast.Stmt) {
	vars, fns := ast.HoistedDecls(body)
	for _, name := range vars {
		if in.Global.Cell(name) == nil {
			in.Global.Define(name, Undefined)
		}
	}
	for _, fn := range fns {
		if fn.Intrinsic == ast.NoIntrinsic {
			in.Global.Define(fn.Name, ObjectValue(in.makeFunction(fn, in.Global)))
		}
	}
}

// DefineIntrinsics puts in the intrinsic table the prelude functions prog
// declares (ast.Func.Intrinsic), as running it does: all a restored realm
// needs of the prelude, since no guest can reach those functions and so no
// snapshot carries them.
func (in *Interp) DefineIntrinsics(prog *ast.Program) {
	for _, s := range prog.Body {
		if fd, ok := s.(*ast.FuncDecl); ok && fd.Fn.Intrinsic != ast.NoIntrinsic {
			in.table().Intrinsics[fd.Fn.Intrinsic] = in.makeFunction(fd.Fn, in.Global)
		}
	}
}

// funcObject co-locates a function object with its closure so creating one
// is a single allocation.
type funcObject struct {
	obj Object
	fn  Closure
}

// makeFunction builds a function object for a literal in env. Closures
// allocate, so they are charged like other allocations — this is what makes
// closure-per-call continuation representations (CPS, generators) pay their
// real cost relative to checked returns.
//
// The captured environment chain is marked escaped so the frame pool never
// recycles a frame this closure can still see. Marking stops at the first
// already-escaped frame: escape marking always walks the full chain, so an
// escaped frame implies escaped ancestors. A still-lazy `arguments` on the way
// is built now (the closure may read that slot, during the call or after it),
// so no escaped frame ever holds an argsValue.
func (in *Interp) makeFunction(fn *ast.Func, env *Env) *Object {
	for e := env; e != nil && !e.escaped; e = e.parent {
		e.escaped = true
		if l := e.layout; l != nil && l.ArgumentsSlot >= 0 {
			in.buildArguments(&e.slots[l.ArgumentsSlot])
		}
	}
	in.chargeAlloc()
	in.chargeMem(memFuncBytes)
	p := new(funcObject)
	p.obj = Object{Class: ClassFunction, Proto: in.functionProto, Fn: &p.fn}
	p.fn = Closure{Decl: fn, Env: env, Self: &p.obj}
	// .length is materialized lazily on first access (objGet), like
	// .prototype, so creating a closure allocates no property storage.
	return &p.obj
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (in *Interp) execStmts(body []ast.Stmt, env *Env) error {
	for _, s := range body {
		if err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(s ast.Stmt, env *Env) error {
	in.Steps++
	in.chargeStmt(1, false)
	if in.Steps > in.stepLimit {
		if err := in.stepBoundary(); err != nil {
			return err
		}
	}
	// Hot statement kinds first: instrumented code is mostly expression
	// statements under mode-dispatch ifs.
	switch n := s.(type) {
	case *ast.ExprStmt:
		_, err := in.eval(n.X, env)
		return err
	case *ast.If:
		in.chargeBranch()
		t, err := in.eval(n.Test, env)
		if err != nil {
			return err
		}
		if ToBoolean(t) {
			return in.execStmt(n.Cons, env)
		}
		if n.Alt != nil {
			return in.execStmt(n.Alt, env)
		}
		return nil
	case *ast.Return:
		v := Undefined
		if n.Arg != nil {
			var err error
			v, err = in.eval(n.Arg, env)
			if err != nil {
				return err
			}
		}
		return in.newReturn(v)
	case *ast.VarDecl:
		for i := range n.Decls {
			d := &n.Decls[i]
			if d.Init == nil {
				// Hoisting made the binding — a slot of the frame, or a
				// global cell — and re-executing `var x` must not reset it.
				continue
			}
			v, err := in.eval(d.Init, env)
			if err != nil {
				return err
			}
			in.store(d.Ref, d.Name, 0, v, env)
		}
		return nil
	case *ast.Block:
		return in.execStmts(n.Body, env)
	case *ast.While:
		return in.execWhile(n, env, nil)
	case *ast.DoWhile:
		return in.execDoWhile(n, env, nil)
	case *ast.For:
		return in.execFor(n, env, nil)
	case *ast.ForIn:
		return in.execForIn(n, env, nil)
	case *ast.Break:
		if n.Label == "" {
			return breakUnlabeled
		}
		return &breakErr{label: n.Label}
	case *ast.Continue:
		if n.Label == "" {
			return continueUnlabeled
		}
		return &continueErr{label: n.Label}
	case *ast.Labeled:
		return in.execLabeled(n, env)
	case *ast.Switch:
		return in.execSwitch(n, env)
	case *ast.Throw:
		v, err := in.eval(n.Arg, env)
		if err != nil {
			return err
		}
		in.chargeThrow()
		return &Thrown{Value: v}
	case *ast.Try:
		return in.execTry(n, env)
	case *ast.FuncDecl, *ast.Empty:
		// A declaration was bound on entry, by hoisting.
		return nil
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

// newReturn builds a return completion, reusing a recycled one when
// available.
func (in *Interp) newReturn(v Value) *returnErr {
	st := in.ops
	if n := len(st.rets); n > 0 {
		re := st.rets[n-1]
		st.rets[n-1] = nil // the completion may be dropped in flight, value and all (acquireFrame)
		st.rets = st.rets[:n-1]
		re.value = v
		return re
	}
	return &returnErr{value: v}
}

// loopIterDone interprets a loop body completion: it consumes continue/break
// aimed at this loop (labels includes the loop's labels) and reports
// (stop, err).
func loopIterDone(err error, labels []string) (bool, error) {
	switch e := err.(type) {
	case nil:
		return false, nil
	case *continueErr:
		if e.label == "" || slices.Contains(labels, e.label) {
			return false, nil
		}
		return true, err
	case *breakErr:
		if e.label == "" || slices.Contains(labels, e.label) {
			return true, nil
		}
		return true, err
	default:
		return true, err
	}
}

func (in *Interp) execWhile(n *ast.While, env *Env, labels []string) error {
	for {
		t, err := in.eval(n.Test, env)
		if err != nil {
			return err
		}
		if !ToBoolean(t) {
			return nil
		}
		stop, err := loopIterDone(in.execStmt(n.Body, env), labels)
		if stop {
			return err
		}
	}
}

func (in *Interp) execDoWhile(n *ast.DoWhile, env *Env, labels []string) error {
	for {
		stop, err := loopIterDone(in.execStmt(n.Body, env), labels)
		if stop {
			return err
		}
		t, err := in.eval(n.Test, env)
		if err != nil {
			return err
		}
		if !ToBoolean(t) {
			return nil
		}
	}
}

func (in *Interp) execFor(n *ast.For, env *Env, labels []string) error {
	if n.Init != nil {
		if err := in.execStmt(n.Init, env); err != nil {
			return err
		}
	}
	for {
		if n.Test != nil {
			t, err := in.eval(n.Test, env)
			if err != nil {
				return err
			}
			if !ToBoolean(t) {
				return nil
			}
		}
		stop, err := loopIterDone(in.execStmt(n.Body, env), labels)
		if stop {
			return err
		}
		if n.Update != nil {
			if _, err := in.eval(n.Update, env); err != nil {
				return err
			}
		}
	}
}

func (in *Interp) execForIn(n *ast.ForIn, env *Env, labels []string) error {
	obj, err := in.eval(n.Obj, env)
	if err != nil {
		return err
	}
	for _, key := range forInKeys(obj) {
		// An undeclared loop variable makes an implicit global.
		in.store(n.Ref, n.Name, 0, StringValue(key), env)
		stop, err := loopIterDone(in.execStmt(n.Body, env), labels)
		if stop {
			return err
		}
	}
	return nil
}

// forInKeys is what a for-in statement enumerates over v: an object's own
// enumerable keys, in order; a string's indexes, below its length as
// "length" reads it; nothing for another primitive. Both engines enumerate
// with it, and a desugared for-in through $forInKeys.
func forInKeys(v Value) []string {
	if o := v.Obj(); o != nil {
		return o.OwnKeys()
	}
	if v.tag != TagString {
		return nil
	}
	keys := make([]string, len(v.Str()))
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	return keys
}

// forInKeysNative is $forInKeys: forInKeys as an array.
func forInKeysNative(in *Interp, this Value, args []Value) (Value, error) {
	var keys []string
	if len(args) > 0 {
		keys = forInKeys(args[0])
	}
	elems := make([]Value, len(keys))
	for i, k := range keys {
		elems[i] = StringValue(k)
	}
	return ObjectValue(in.NewArray(elems)), nil
}

func (in *Interp) execLabeled(n *ast.Labeled, env *Env) error {
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
	var err error
	switch b := body.(type) {
	case *ast.While:
		err = in.execWhile(b, env, labels)
	case *ast.DoWhile:
		err = in.execDoWhile(b, env, labels)
	case *ast.For:
		err = in.execFor(b, env, labels)
	case *ast.ForIn:
		err = in.execForIn(b, env, labels)
	default:
		err = in.execStmt(body, env)
	}
	if be, ok := err.(*breakErr); ok && slices.Contains(labels, be.label) {
		return nil
	}
	return err
}

func (in *Interp) execSwitch(n *ast.Switch, env *Env) error {
	disc, err := in.eval(n.Disc, env)
	if err != nil {
		return err
	}
	match := -1
	defaultIdx := -1
	for i, c := range n.Cases {
		if c.Test == nil {
			defaultIdx = i
			continue
		}
		tv, err := in.eval(c.Test, env)
		if err != nil {
			return err
		}
		if StrictEquals(disc, tv) {
			match = i
			break
		}
	}
	if match < 0 {
		match = defaultIdx
	}
	if match < 0 {
		return nil
	}
	for i := match; i < len(n.Cases); i++ {
		for _, s := range n.Cases[i].Body {
			err := in.execStmt(s, env)
			if be, ok := err.(*breakErr); ok && be.label == "" {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *Interp) execTry(n *ast.Try, env *Env) error {
	in.chargeTry()
	err := in.execStmts(n.Block.Body, env)
	if t, ok := err.(*Thrown); ok && n.Catch != nil {
		cenv := NewSlotEnv(env, n.CatchScope)
		cenv.slots[0] = t.Value
		err = in.execStmts(n.Catch.Body, cenv)
	}
	if n.Finally != nil && isCompletion(err) {
		if ferr := in.execStmts(n.Finally.Body, env); ferr != nil {
			return ferr // an abrupt finally completion wins
		}
	}
	return err
}

// isCompletion reports whether err is a way JavaScript code completes: not
// at all, or by throw, return, break or continue. Anything else ends the
// guest from outside it — a budget abort, a kill, a host error — and no
// guest code, a finally block included, runs on its way out.
func isCompletion(err error) bool {
	switch err.(type) {
	case nil, *Thrown, *returnErr, *breakErr, *continueErr:
		return true
	}
	return false
}

// WriteOut emits console output.
func (in *Interp) WriteOut(s string) {
	if in.out != nil {
		io.WriteString(in.out, s)
	}
}

// Random returns the next Math.random value from the seeded generator
// (xorshift64*), in [0, 1).
func (in *Interp) Random() float64 {
	x := in.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rng = x
	return float64(x*2685821657736338717>>11) / float64(uint64(1)<<53)
}
