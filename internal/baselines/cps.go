// Package baselines implements the systems Stopify is measured against:
//
//   - a CPS + trampoline compiler (the first strawman of §3, ~3× slower
//     than Stopify's approach)
//   - a generator-style transform (the second strawman, ~2× slower)
//   - a Skulpt-like execution layer (Figure 12's comparison, §6.3)
//   - the classic Pyret configuration (Figure 14's comparison, §6.4)
//
// Each baseline produces plain JavaScript that runs on the interpreter
// without the Stopify runtime, so its cost can be compared against
// instrumented code on equal footing.
package baselines

import (
	"fmt"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/parser"
	"repro/internal/printer"
)

// cpsPrelude is the trampoline runtime: $invoke dispatches on whether the
// callee is CPS-converted (natives are called directly and their result
// bounced to the continuation), and $tramp bounces until a non-thunk value
// appears — which keeps the native stack flat, the standard fix for CPS on
// stackless-hostile platforms.
const cpsPrelude = `
function $mark(f) { f.$cps = true; return f; }
function $invoke(f, self, args, k) {
  if (f.$cps === true) {
    args.push(k);
    return { $b: true, fn: f, self: self, args: args };
  }
  return { $b: true, fn: k, self: null, args: [f.apply(self, args)] };
}
function $bounce(k, v) { return { $b: true, fn: k, self: null, args: [v] }; }
function $tramp(b) {
  while (b !== null && typeof b === "object" && b.$b === true) {
    b = b.fn.apply(b.self, b.args);
  }
  return b;
}
`

// CompileCPS converts source to continuation-passing style with a
// trampoline. It supports the control constructs the numeric benchmark
// subset uses (calls, if, while, plain statements); try/catch and labeled
// jumps across suspension points are rejected — this is a strawman, not a
// product, which is the paper's point.
func CompileCPS(source string) (string, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	nm := &desugar.Namer{}
	// Wrap in $cpsmain so top-level statements have a function context.
	wrapped := &ast.Program{Body: []ast.Stmt{
		&ast.FuncDecl{Fn: &ast.Func{Name: "$cpsmain", Body: prog.Body}},
	}, Guest: prog.Guest}
	desugar.Apply(wrapped, desugar.Options{}, nm)
	anf.Normalize(wrapped)

	c := &cpsCtx{nm: nm}
	var fns []*ast.Func
	ast.Walk(wrapped, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok {
			fns = append(fns, fn)
		}
		return true
	})
	for _, fn := range fns {
		if err := c.convertFunc(fn); err != nil {
			return "", err
		}
	}

	out := cpsPrelude + printer.Print(wrapped) +
		"$cpsmain.$cps = true;\n" +
		"$tramp($invoke($cpsmain, undefined, [], function (v) { return v; }));\n"
	return out, nil
}

type cpsCtx struct {
	nm *desugar.Namer

	// Join targets for control flow crossing suspension points: labeled
	// blocks map to their end-join; the innermost converted loop maps
	// unlabeled break/continue to its join and head.
	labelJoins  map[string]string
	curLoopJoin string
	curLoopHead string
}

// convertFunc rewrites one function into CPS: an extra $cc parameter, every
// application a trampoline bounce, every return a bounce to $cc.
func (c *cpsCtx) convertFunc(fn *ast.Func) error {
	if c.labelJoins == nil {
		c.labelJoins = map[string]string{}
	}
	fn.Params = append(fn.Params, "$cc")
	body, err := c.stmts(fn.Body, retToCC())
	if err != nil {
		return fmt.Errorf("cps: function %s: %w", fn.Name, err)
	}
	// Mark functions created inside this body so $invoke dispatches right;
	// markers are inserted where functions are bound (see bindMarkers).
	fn.Body = body
	return nil
}

// retToCC is the continuation "return to caller".
func retToCC() []ast.Stmt {
	return []ast.Stmt{ast.Ret(ast.CallId("$bounce", ast.Id("$cc"), ast.Undef()))}
}

// stmts CPS-converts a statement list; rest is the already-converted
// continuation of the list.
func (c *cpsCtx) stmts(body []ast.Stmt, rest []ast.Stmt) ([]ast.Stmt, error) {
	out := rest
	for i := len(body) - 1; i >= 0; i-- {
		converted, err := c.stmt(body[i], out)
		if err != nil {
			return nil, err
		}
		out = converted
	}
	return out, nil
}

func (c *cpsCtx) stmt(s ast.Stmt, rest []ast.Stmt) ([]ast.Stmt, error) {
	switch n := s.(type) {
	case *ast.VarDecl:
		// Post-ANF: single declarator. A call initializer suspends.
		if len(n.Decls) == 1 {
			d := n.Decls[0]
			if call, ok := d.Init.(*ast.Call); ok {
				return c.callSite(ast.Id(d.Name), call, rest, true)
			}
			if _, ok := d.Init.(*ast.New); ok {
				return nil, fmt.Errorf("new-expressions are not supported by the CPS strawman")
			}
			c.markFuncInits(n)
		}
		return append([]ast.Stmt{n}, rest...), nil
	case *ast.ExprStmt:
		if a, ok := n.X.(*ast.Assign); ok {
			if call, isCall := a.Value.(*ast.Call); isCall {
				return c.callSite(a.Target, call, rest, false)
			}
			if _, isNew := a.Value.(*ast.New); isNew {
				return nil, fmt.Errorf("new-expressions are not supported by the CPS strawman")
			}
			if fnv, isFn := a.Value.(*ast.Func); isFn {
				a.Value = ast.CallId("$mark", fnv)
			}
		}
		return append([]ast.Stmt{n}, rest...), nil
	case *ast.Return:
		if call, ok := n.Arg.(*ast.Call); ok {
			inv, err := invokeExpr(call, ast.Id("$cc"))
			if err != nil {
				return nil, err
			}
			return []ast.Stmt{ast.Ret(inv)}, nil
		}
		arg := n.Arg
		if arg == nil {
			arg = ast.Undef()
		}
		return []ast.Stmt{ast.Ret(ast.CallId("$bounce", ast.Id("$cc"), arg))}, nil
	case *ast.Block:
		return c.stmts(n.Body, rest)
	case *ast.If:
		if !containsCalls(n) {
			// Pure branches may still return (bounce to $cc) or jump to a
			// converted loop or labeled block (bounce to its join).
			c.bounceExits(n, true)
			return append([]ast.Stmt{n}, rest...), nil
		}
		join := c.nm.Fresh("$j")
		joinBody := rest
		goJoin := bounce(join)
		cons, err := c.stmts(blockStmts(n.Cons), []ast.Stmt{goJoin})
		if err != nil {
			return nil, err
		}
		var alt []ast.Stmt
		if n.Alt != nil {
			alt, err = c.stmts(blockStmts(n.Alt), []ast.Stmt{goJoin})
			if err != nil {
				return nil, err
			}
		} else {
			alt = []ast.Stmt{goJoin}
		}
		return []ast.Stmt{
			&ast.FuncDecl{Fn: &ast.Func{Name: join, Params: []string{}, Body: joinBody}},
			&ast.If{Test: n.Test, Cons: ast.BlockOf(cons...), Alt: ast.BlockOf(alt...)},
		}, nil
	case *ast.While:
		if !containsCalls(n) {
			c.bounceExits(n, false)
			return append([]ast.Stmt{n}, rest...), nil
		}
		loop := c.nm.Fresh("$loop")
		join := c.nm.Fresh("$j")
		joinBody := rest
		goLoop := bounce(loop)
		goJoin := bounce(join)
		prevJoin, prevHead := c.curLoopJoin, c.curLoopHead
		c.curLoopJoin, c.curLoopHead = join, loop
		loopBody, err := c.stmts(blockStmts(n.Body), []ast.Stmt{goLoop})
		c.curLoopJoin, c.curLoopHead = prevJoin, prevHead
		if err != nil {
			return nil, err
		}
		loopFn := &ast.Func{Name: loop, Body: append([]ast.Stmt{
			ast.IfThen(ast.Not(n.Test), goJoin),
		}, loopBody...)}
		return []ast.Stmt{
			&ast.FuncDecl{Fn: &ast.Func{Name: join, Body: joinBody}},
			&ast.FuncDecl{Fn: loopFn},
			goLoop,
		}, nil
	case *ast.Break:
		if n.Label == "" {
			if c.curLoopJoin == "" {
				return append([]ast.Stmt{s}, rest...), nil
			}
			return []ast.Stmt{bounce(c.curLoopJoin)}, nil
		}
		if join, ok := c.labelJoins[n.Label]; ok {
			return []ast.Stmt{bounce(join)}, nil
		}
		return append([]ast.Stmt{s}, rest...), nil
	case *ast.Continue:
		if n.Label == "" && c.curLoopHead != "" {
			return []ast.Stmt{bounce(c.curLoopHead)}, nil
		}
		return nil, fmt.Errorf("labeled continue across a CPS suspension point is not supported")
	case *ast.FuncDecl:
		marker := ast.ExprOf(ast.SetTo(ast.Dot(ast.Id(n.Fn.Name), "$cps"), ast.Boollit(true)))
		return append([]ast.Stmt{n, marker}, rest...), nil
	case *ast.Try:
		return nil, fmt.Errorf("try/catch is not supported by the CPS strawman")
	case *ast.Labeled:
		if !containsCalls(n.Body) {
			c.bounceExits(n, false)
			return append([]ast.Stmt{n}, rest...), nil
		}
		join := c.nm.Fresh("$j")
		goJoin := bounce(join)
		c.labelJoins[n.Label] = join
		converted, err := c.stmts(blockStmts(n.Body), []ast.Stmt{goJoin})
		delete(c.labelJoins, n.Label)
		if err != nil {
			return nil, err
		}
		out := []ast.Stmt{&ast.FuncDecl{Fn: &ast.Func{Name: join, Body: rest}}}
		return append(out, converted...), nil
	default:
		return append([]ast.Stmt{s}, rest...), nil
	}
}

// callSite converts `target = f(args)` into a trampoline bounce whose
// continuation stores the result and runs the rest.
func (c *cpsCtx) callSite(target ast.Expr, call *ast.Call, rest []ast.Stmt, declare bool) ([]ast.Stmt, error) {
	v := c.nm.Fresh("$v")
	var store ast.Stmt
	if id, ok := target.(*ast.Ident); ok && declare {
		store = ast.Var(id.Name, ast.Id(v))
	} else {
		store = ast.ExprOf(ast.SetTo(target, ast.Id(v)))
	}
	contBody := append([]ast.Stmt{store}, rest...)
	cont := &ast.Func{Name: c.nm.Fresh("$k"), Params: []string{v}, Body: contBody}
	inv, err := invokeExpr(call, cont)
	if err != nil {
		return nil, err
	}
	return []ast.Stmt{ast.Ret(inv)}, nil
}

// invokeExpr builds $invoke(f, this, [args], k).
func invokeExpr(call *ast.Call, k ast.Expr) (ast.Expr, error) {
	var fnExpr, selfExpr ast.Expr
	if m, ok := call.Callee.(*ast.Member); ok {
		selfExpr = m.X
		fnExpr = call.Callee
	} else {
		selfExpr = ast.Undef()
		fnExpr = call.Callee
	}
	return ast.CallId("$invoke", fnExpr, selfExpr, &ast.Array{Elems: call.Args}, k), nil
}

// markFuncInits wraps function-expression initializers with $mark.
func (c *cpsCtx) markFuncInits(decl *ast.VarDecl) {
	for i := range decl.Decls {
		if fn, ok := decl.Decls[i].Init.(*ast.Func); ok {
			decl.Decls[i].Init = ast.CallId("$mark", fn)
		}
	}
}

// bounceExits rewrites the exits of a pure (call-free) region that leave it
// for a continuation: each return becomes a bounce to $cc and, with jumps,
// each break or continue that targets a converted loop or labeled block a
// bounce to its join. A loop nested in the region keeps its own unlabeled
// jumps; nested functions are left alone.
func (c *cpsCtx) bounceExits(s ast.Stmt, jumps bool) {
	loops := 0 // loops entered below s
	r := ast.Rewriter{PreExpr: ast.StmtsOnly}
	r.PreStmt = func(s ast.Stmt) (ast.Stmt, bool) {
		switch n := s.(type) {
		case *ast.FuncDecl:
			return s, true
		case *ast.Return:
			arg := n.Arg
			if arg == nil {
				arg = ast.Undef()
			}
			n.Arg = ast.CallId("$bounce", ast.Id("$cc"), arg)
			return n, true
		case *ast.Break:
			join, ok := c.labelJoins[n.Label]
			if n.Label == "" {
				join, ok = c.curLoopJoin, loops == 0 && c.curLoopJoin != ""
			}
			if jumps && ok {
				return bounce(join), true
			}
		case *ast.Continue:
			if jumps && n.Label == "" && loops == 0 && c.curLoopHead != "" {
				return bounce(c.curLoopHead), true
			}
		case *ast.While:
			loops++
		}
		return nil, false
	}
	r.PostStmt = func(s ast.Stmt) ast.Stmt {
		if _, ok := s.(*ast.While); ok {
			loops--
		}
		return s
	}
	r.Stmt(s)
}

// bounce is `return $bounce(k, undefined)`: go on with the continuation k.
func bounce(k string) ast.Stmt {
	return ast.Ret(ast.CallId("$bounce", ast.Id(k), ast.Undef()))
}

func blockStmts(s ast.Stmt) []ast.Stmt {
	if b, ok := s.(*ast.Block); ok {
		return b.Body
	}
	if s == nil {
		return nil
	}
	return []ast.Stmt{s}
}

func containsCalls(s ast.Stmt) bool {
	found := false
	ast.Walk(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Call, *ast.New:
			found = true
			return false
		case *ast.Func:
			return false
		}
		return !found
	})
	return found
}
