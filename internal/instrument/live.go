package instrument

import (
	"maps"
	"slices"

	"repro/internal/ast"
)

// savedLocals returns the subset of c.locals a frame saves and the prologue
// restores, in c.locals order: the locals live across some call site — read
// after the site returns, by any path, before they are written — and those
// kept whatever liveness says. Generalized stack inspection's frames carry
// the free variables of the rest of the method, not every local.
//
// Kept always: the names this pass introduced (c.extra), which restore mode
// reads to re-enter a catch or finally clause; any local a nested function
// names, whose box or binding a closure shares; `arguments` and every formal
// when `arguments` travels in locals, since the two alias; and every local of
// a function that names eval.
func (c *fctx) savedLocals(fn *ast.Func, body []ast.Stmt) []string {
	lv := &liveness{index: make(map[string]int, len(c.locals)), words: (len(c.locals) + 63) / 64,
		heads: make(map[*ast.While]bits)}
	for i, name := range c.locals {
		lv.index[name] = i
	}
	lv.visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Func:
			return false
		case *ast.Ident:
			lv.add(lv.into, n.Name)
		}
		return true
	}
	keep := lv.set()
	for _, name := range c.extra {
		lv.add(keep, name)
	}
	if _, ok := lv.index["arguments"]; ok {
		lv.add(keep, "arguments")
		for _, p := range fn.Params {
			lv.add(keep, p)
		}
	}
	eval := false
	for _, s := range body {
		ast.Walk(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Func:
				sub := c.nested(n)
				for name := range sub {
					lv.add(keep, name)
				}
				eval = eval || sub["eval"]
				return false
			case *ast.Ident:
				eval = eval || n.Name == "eval"
			}
			return true
		})
	}
	if eval {
		return c.locals
	}

	lv.saved = keep
	lv.stmts(body, lv.set(), &liveEnv{})
	saved := make([]string, 0, len(c.locals))
	for i, name := range c.locals {
		if lv.saved.has(i) {
			saved = append(saved, name)
		}
	}
	return saved
}

// nested is the set of names fn's body holds, its nested functions' included.
// It is worked out once a function, bottom-up from its nested functions' and
// remembered (names.subtrees), so a nest is walked once in all rather than
// once for each function around it. Functions are instrumented outermost
// first, so it is what every enclosing function sees; the one rewrite that
// reaches into a nested function before then, a catch parameter's renaming,
// makes the memory forget those it enters.
func (nm *names) nested(fn *ast.Func) map[string]bool {
	if sub, ok := nm.subtrees[fn]; ok {
		return sub
	}
	sub := map[string]bool{}
	for _, s := range fn.Body {
		ast.Walk(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Func:
				maps.Copy(sub, nm.nested(n))
				return false
			case *ast.Ident:
				sub[n.Name] = true
			}
			return true
		})
	}
	nm.subtrees[fn] = sub
	return sub
}

// bits is a set of indexes into a function's locals list.
type bits []uint64

func (b bits) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// or adds o to b, reporting whether b grew; a nil o is the empty set.
func (b bits) or(o bits) bool {
	grew := false
	for i, w := range o {
		grew = grew || w&^b[i] != 0
		b[i] |= w
	}
	return grew
}

// liveness is the backward pass: stmts turns the set live after a statement
// list into the set live before it, adding to saved what is live across each
// labeled site on the way.
type liveness struct {
	index map[string]int
	words int
	saved bits
	heads map[*ast.While]bits // each loop's head set, kept across its enclosing loops' passes
	into  bits                // the set uses adds to
	visit func(ast.Node) bool // uses' visitor, made once
}

// liveEnv is where abrupt completions go: the sets live at the innermost
// handler a throw reaches, at a return's destination (a finally, or none),
// and at each break and continue target.
type liveEnv struct {
	exc, ret  bits
	brk, cont bits // the innermost loop's
	labels    []*liveLabel
}

// liveLabel is a labeled statement's targets; cont is nil unless it labels
// a loop.
type liveLabel struct {
	name      string
	brk, cont bits
}

// through is e inside a try whose finally is entered with fin live: a throw,
// a return, and a break or continue to a target outside the try all run the
// finally first.
func (e *liveEnv) through(fin bits) *liveEnv {
	inner := &liveEnv{exc: fin, ret: fin, brk: fin, cont: fin, labels: make([]*liveLabel, len(e.labels))}
	for i, l := range e.labels {
		inner.labels[i] = &liveLabel{name: l.name, brk: fin, cont: fin}
	}
	return inner
}

func (lv *liveness) set() bits { return make(bits, lv.words) }

func (lv *liveness) add(b bits, name string) {
	if i, ok := lv.index[name]; ok {
		b[i/64] |= 1 << (i % 64)
	}
}

// uses adds the locals e reads. A nested function's names are kept whatever
// liveness says, so its body is not visited.
func (lv *liveness) uses(b bits, e ast.Expr) {
	lv.into = b
	ast.Walk(e, lv.visit)
}

func (lv *liveness) stmts(body []ast.Stmt, s bits, e *liveEnv) {
	for i := len(body) - 1; i >= 0; i-- {
		lv.stmt(body[i], s, e)
	}
}

// stmt turns s, the set live after st, into the set live before it. Any
// statement may throw before it writes anything, so e.exc flows into each.
func (lv *liveness) stmt(st ast.Stmt, s bits, e *liveEnv) {
	switch n := st.(type) {
	case *ast.ExprStmt:
		a, _ := n.X.(*ast.Assign)
		if a == nil || a.Op != "=" {
			lv.uses(s, n.X)
			break
		}
		if id, ok := a.Target.(*ast.Ident); ok {
			if i, ok := lv.index[id.Name]; ok {
				s[i/64] &^= 1 << (i % 64)
			}
		} else {
			lv.uses(s, a.Target)
		}
		if siteLabel(a.Value) != 0 {
			// Live once the site returns, or once the callee it re-enters
			// throws: the target keeps its old value on that path.
			s.or(e.exc)
			lv.saved.or(s)
		}
		lv.uses(s, a.Value)
	case *ast.Return:
		clear(s)
		s.or(e.ret)
		lv.uses(s, n.Arg)
	case *ast.Throw:
		clear(s)
		lv.uses(s, n.Arg)
	case *ast.Break:
		lv.jump(s, e, n.Label, false)
	case *ast.Continue:
		lv.jump(s, e, n.Label, true)
	case *ast.Block:
		lv.stmts(n.Body, s, e)
	case *ast.If:
		cons := slices.Clone(s)
		lv.stmt(n.Cons, cons, e)
		if n.Alt != nil {
			lv.stmt(n.Alt, s, e)
		}
		s.or(cons)
		lv.uses(s, n.Test)
	case *ast.While:
		lv.loop(n, s, e, nil)
	case *ast.Labeled:
		l := &liveLabel{name: n.Label, brk: slices.Clone(s)}
		inner := *e
		inner.labels = append(slices.Clip(e.labels), l)
		if w, ok := n.Body.(*ast.While); ok {
			lv.loop(w, s, &inner, l)
		} else {
			lv.stmt(n.Body, s, &inner)
		}
	case *ast.Try:
		lv.try(n, s, e)
	case *ast.FuncDecl, *ast.Empty:
	default:
		lv.all(s) // no other statement survives desugaring and DeclToAssigns
	}
	s.or(e.exc)
}

func (lv *liveness) all(b bits) {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// jump sets s to what is live at a break's or continue's target.
func (lv *liveness) jump(s bits, e *liveEnv, label string, cont bool) {
	target := e.brk
	if cont {
		target = e.cont
	}
	if label != "" {
		target = nil
		for i := len(e.labels) - 1; i >= 0; i-- {
			if l := e.labels[i]; l.name == label {
				target = l.brk
				if cont {
					target = l.cont
				}
				break
			}
		}
	}
	if target == nil {
		lv.all(s) // a target this pass did not see
		return
	}
	copy(s, target)
}

// loop iterates a while loop's head set to a fixpoint: what the test reads,
// what is live after the loop, and what the body needs, entered with the
// head as its continue target, and as label's when the loop is labeled. The
// head starts where the enclosing loops' last pass left it: sets only grow
// from pass to pass, so a loop nested d deep is walked O(d) times, not 2^d.
func (lv *liveness) loop(n *ast.While, s bits, e *liveEnv, label *liveLabel) {
	out := slices.Clone(s)
	head := lv.heads[n]
	if head == nil {
		head = lv.set()
		lv.heads[n] = head
	}
	head.or(s)
	lv.uses(head, n.Test)
	head.or(e.exc)
	inner := *e
	inner.brk, inner.cont = out, head
	if label != nil {
		label.cont = head
	}
	body := lv.set()
	for {
		copy(body, head)
		lv.stmt(n.Body, body, &inner)
		if !head.or(body) {
			break
		}
	}
	copy(s, head)
}

// try analyzes a try statement: the finally is entered with everything an
// exit through it may reach live, the catch is what a throw in the block
// reaches, and the block ends where the whole statement, or the finally,
// begins.
func (lv *liveness) try(n *ast.Try, s bits, e *liveEnv) {
	inner := e
	if n.Finally != nil {
		for _, b := range []bits{e.ret, e.exc, e.brk, e.cont} {
			s.or(b)
		}
		for _, l := range e.labels {
			s.or(l.brk)
			s.or(l.cont)
		}
		lv.stmts(n.Finally.Body, s, e)
		inner = e.through(slices.Clone(s))
	}
	block := *inner
	if n.Catch != nil {
		c := slices.Clone(s)
		lv.stmts(n.Catch.Body, c, inner)
		block.exc = c
	}
	lv.stmts(n.Block.Body, s, &block)
}
