package anf

import (
	"fmt"

	"repro/internal/ast"
)

// Check verifies the A-normal-form invariants and returns the first
// violation found, or nil. The instrumentation assumes these invariants but
// does not call Check; tests do: this package's, and the conformance matrix
// on every program it compiles (core's CheckANF).
func Check(prog *ast.Program) error {
	return checkStmts(prog.Body)
}

func checkStmts(body []ast.Stmt) error {
	for _, s := range body {
		if err := checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func checkStmt(s ast.Stmt) error {
	switch st := s.(type) {
	case nil, *ast.Break, *ast.Continue, *ast.Empty:
		return nil
	case *ast.VarDecl:
		for _, d := range st.Decls {
			if d.Init == nil {
				continue
			}
			if err := checkNamed(d.Init); err != nil {
				return err
			}
		}
		return nil
	case *ast.ExprStmt:
		if fn, ok := st.X.(*ast.Func); ok {
			// A function expression in statement position is what the
			// normalizer leaves of it: a top level's body is one.
			return checkStmts(fn.Body)
		}
		a, ok := st.X.(*ast.Assign)
		if !ok || a.Op != "=" {
			return fmt.Errorf("anf: expression statement is not a plain assignment: %T", st.X)
		}
		switch target := a.Target.(type) {
		case *ast.Ident:
			return checkNamed(a.Value)
		case *ast.Member:
			if err := checkAtomicMemberRef(target); err != nil {
				return err
			}
			return checkAtom(a.Value)
		default:
			return fmt.Errorf("anf: bad assignment target %T", a.Target)
		}
	case *ast.Block:
		return checkStmts(st.Body)
	case *ast.If:
		if err := checkCondition(st.Test); err != nil {
			return err
		}
		if err := checkStmt(st.Cons); err != nil {
			return err
		}
		if st.Alt != nil {
			return checkStmt(st.Alt)
		}
		return nil
	case *ast.While:
		if err := checkCondition(st.Test); err != nil {
			return err
		}
		return checkStmt(st.Body)
	case *ast.Return:
		if st.Arg == nil {
			return nil
		}
		if call, ok := st.Arg.(*ast.Call); ok {
			return checkCallParts(call) // tail call
		}
		return checkAtom(st.Arg)
	case *ast.Labeled:
		return checkStmt(st.Body)
	case *ast.Throw:
		return checkAtom(st.Arg)
	case *ast.Try:
		if err := checkStmts(st.Block.Body); err != nil {
			return err
		}
		if st.Catch != nil {
			if err := checkStmts(st.Catch.Body); err != nil {
				return err
			}
		}
		if st.Finally != nil {
			return checkStmts(st.Finally.Body)
		}
		return nil
	case *ast.FuncDecl:
		return checkStmts(st.Fn.Body)
	default:
		return fmt.Errorf("anf: unexpected statement %T", s)
	}
}

// checkNamed allows the named-position forms: calls, news, and single pure
// operations over atoms.
func checkNamed(e ast.Expr) error {
	switch x := e.(type) {
	case *ast.Call:
		return checkCallParts(x)
	case *ast.New:
		if err := checkAtom(x.Callee); err != nil {
			return err
		}
		return checkAtoms(x.Args)
	case *ast.Binary:
		if err := checkAtom(x.L); err != nil {
			return err
		}
		return checkAtom(x.R)
	case *ast.Unary:
		if x.Op == "delete" {
			if m, ok := x.X.(*ast.Member); ok {
				return checkAtomicMemberRef(m)
			}
		}
		return checkAtom(x.X)
	case *ast.Member:
		return checkAtomicMemberRef(x)
	case *ast.Logical:
		if err := checkAtom(x.L); err != nil {
			return err
		}
		if !pureSimple(x.R) {
			return fmt.Errorf("anf: impure logical right operand %T", x.R)
		}
		return nil
	case *ast.Cond:
		if err := checkAtom(x.Test); err != nil {
			return err
		}
		if !pureSimple(x.Cons) || !pureSimple(x.Alt) {
			return fmt.Errorf("anf: impure conditional branch")
		}
		return nil
	case *ast.Array:
		return checkAtoms(x.Elems)
	case *ast.Object:
		for _, p := range x.Props {
			if p.Kind == ast.PropInit {
				if err := checkAtom(p.Value); err != nil {
					return err
				}
			} else if fn, ok := p.Value.(*ast.Func); ok {
				if err := checkStmts(fn.Body); err != nil {
					return err
				}
			}
		}
		return nil
	case *ast.Func:
		return checkStmts(x.Body)
	default:
		return checkAtom(e)
	}
}

func checkCallParts(c *ast.Call) error {
	// A callee is a member of an atom or what normCall leaves of anything
	// else: an atom — the function expression of an immediately-invoked one
	// included.
	if m, ok := c.Callee.(*ast.Member); ok {
		if err := checkAtomicMemberRef(m); err != nil {
			return err
		}
	} else if err := checkAtom(c.Callee); err != nil {
		return fmt.Errorf("anf: callee: %w", err)
	}
	return checkAtoms(c.Args)
}

func checkAtomicMemberRef(m *ast.Member) error {
	if err := checkAtom(m.X); err != nil {
		return err
	}
	if m.Computed {
		return checkAtom(m.Index)
	}
	return nil
}

func checkAtoms(es []ast.Expr) error {
	for _, e := range es {
		if err := checkAtom(e); err != nil {
			return err
		}
	}
	return nil
}

func checkAtom(e ast.Expr) error {
	if isAtom(e) {
		return nil
	}
	if fn, ok := e.(*ast.Func); ok {
		return checkStmts(fn.Body)
	}
	return fmt.Errorf("anf: %T is not atomic", e)
}

// checkCondition requires call-free conditions (pure expressions over atoms
// and member reads).
func checkCondition(e ast.Expr) error {
	bad := false
	ast.Walk(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Call, *ast.New, *ast.Assign, *ast.Update, *ast.Seq, *ast.Func:
			bad = true
			return false
		}
		return !bad
	})
	if bad {
		return fmt.Errorf("anf: condition contains effects")
	}
	return nil
}
