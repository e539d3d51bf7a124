// Package resolve implements static scope resolution for the interpreter
// substrate: a pass that runs after the Stopify pipeline (or after plain
// parsing, for raw runs) and annotates every lexical reference with a
// (hops, slot) coordinate, so the interpreter runs on slice-backed frames
// instead of chains of maps — the same
// resolve-before-execute move real engines make in their bytecode
// front-ends, and the same static-scope analysis Stopify itself relies on
// when it boxes assignable captured variables (§3.2.1 of the paper).
//
// The pass is a precondition of execution, not an optimisation an engine may
// find missing: a frame is either the realm's global frame or a slot frame
// laid out here, and interp.Call refuses a function that has no layout. Every
// reference leaves with one of two answers — a (hops, slot) coordinate, or a
// proof that no static scope binds the name (ast.RefGlobal), so only the
// global frame can. A coordinate the packed Ref cannot hold (a slot past
// ast.MaxSlot, a frame more than ast.MaxHops out) fails the program, as V8
// refuses a function with too many variables.
//
// Scope model. The interpreter creates exactly one environment frame per
// function call and one per entered catch clause; blocks do not create
// frames (let/const are renamed to var upstream). The resolver mirrors that
// chain: it walks function bodies with a stack of function and catch
// scopes, hoists var and function declarations into the function scope
// (sharing ast.HoistedDecls with the interpreter so the two models cannot
// drift), and counts hops from the reference site to the defining scope.
// Top-level code runs in the global frame, which is dynamic by design —
// builtins, the host, and eval'd code all define names there at runtime — so
// references that reach the top are marked RefGlobal. A reference a compile
// pass marked as the runtime's (ast.Intrinsic) keeps its mark: it names no
// frame's binding, so no guest declaration can capture it.
package resolve

import (
	"fmt"

	"repro/internal/ast"
)

// Inline-cache site IDs. Every non-computed member access and every
// proved-global identifier reference gets a positive ID from the ast.Sites
// allocator its caller owns; the interpreter keeps one cache entry per ID
// per realm, so two realms executing the same tree never share cache
// state, while re-executing a site in one realm always lands on the same
// entry. One realm runs many resolved trees (the prelude, the main program,
// every eval'd fragment) and their sites must not collide, so all of them
// are numbered from one sequence: the compiler numbers the prelude and the
// program, and a fragment compiled later continues from the realm's own
// count. Numbering is dense, which is what lets the interpreter size its
// cache tables to exactly the code it runs however long the process has
// been compiling other programs. 0 is reserved for "no cache".

// Program resolves every function in p in place, numbering its sites from 1.
func Program(p *ast.Program) error {
	return ProgramFrom(p, ast.Sites{})
}

// ProgramFrom is Program continuing the numbering after sites, for a tree
// that joins others in one realm. The allocator's final state is recorded
// in p.Sites. The top-level statements themselves run in the global frame;
// every function literal within gets a slot layout. The error is a
// SyntaxError naming the limit a reference went past; p must not run then.
func ProgramFrom(p *ast.Program, sites ast.Sites) error {
	r := &resolver{sites: sites}
	r.visit = r.resolve
	// Top-level function declarations are hoisted into the global frame
	// before execution, so their closures are created with the global
	// environment — resolve them against it, not against whatever catch
	// scope their statement happens to sit in.
	_, fns := ast.HoistedDecls(p.Body)
	for _, fn := range fns {
		r.resolveFunc(fn)
	}
	r.walk(p.Body)
	p.Sites = r.sites
	return r.err
}

// resolver carries the site allocator and the static chain through one pass.
type resolver struct {
	sites ast.Sites
	sc    *scope              // innermost scope of the node being visited
	visit func(ast.Node) bool // r.resolve, bound once
	err   error               // the first coordinate ast.Ref could not pack
}

// scope is one frame in the static chain. A nil *scope is the global frame:
// a lookup that reaches it is RefGlobal.
type scope struct {
	parent *scope
	names  []string
	index  map[string]int

	// info is the layout being built for a function scope; nil for catch
	// scopes.
	info *scopeExtra
}

// scopeExtra carries the function-scope bookkeeping needed while resolving
// its body.
type scopeExtra struct {
	layout *ast.ScopeInfo
	// argumentsSlot is the implicit `arguments` slot, recorded into the
	// layout only if some reference actually resolves to it.
	argumentsSlot int
}

func (s *scope) define(name string) int {
	if slot, ok := s.index[name]; ok {
		return slot
	}
	slot := len(s.names)
	s.names = append(s.names, name)
	s.index[name] = slot
	return slot
}

// lookup finds name in the static chain and returns its packed coordinate.
// A name bound by no enclosing scope resolves to RefGlobal — the interpreter
// goes straight to the global frame. A coordinate that overflows the packing
// records the program's error.
func (r *resolver) lookup(name string) ast.Ref {
	hops := 0
	for s := r.sc; s != nil; s = s.parent {
		if slot, ok := s.index[name]; ok {
			if s.info != nil && slot == s.info.argumentsSlot {
				// The arguments object is observed; the interpreter must
				// materialize it on entry to this function.
				s.info.layout.ArgumentsSlot = slot
			}
			ref, ok := ast.MakeRef(hops, slot)
			if !ok && r.err == nil {
				r.err = fmt.Errorf("SyntaxError: too many variables declared in one function (a frame holds %d)", ast.MaxSlot+1)
				if slot <= ast.MaxSlot {
					r.err = fmt.Errorf("SyntaxError: scopes nested too deeply (a reference reaches %d frames out)", ast.MaxHops)
				}
			}
			return ref
		}
		hops++
	}
	return ast.RefGlobal
}

// resolveFunc lays out fn's frame, as a child of r.sc, and resolves its body.
func (r *resolver) resolveFunc(fn *ast.Func) {
	sc := &scope{parent: r.sc, index: make(map[string]int)}
	layout := &ast.ScopeInfo{
		SelfSlot:      -1,
		ThisSlot:      -1,
		NewTargetSlot: -1,
		ArgumentsSlot: -1,
	}
	sc.info = &scopeExtra{layout: layout, argumentsSlot: -1}

	// Slot assignment is in the order the interpreter writes a frame on
	// call entry, so later writes to a reused name overwrite earlier ones:
	// self name, parameters, then the implicit bindings, then hoisted
	// declarations.
	if fn.Self != "" {
		layout.SelfSlot = sc.define(fn.Self)
	}
	layout.ParamSlots = make([]int, len(fn.Params))
	for i, p := range fn.Params {
		layout.ParamSlots[i] = sc.define(p)
	}
	if !fn.Arrow {
		layout.ThisSlot = sc.define("this")
		layout.NewTargetSlot = sc.define("new.target")
		sc.info.argumentsSlot = sc.define("arguments")
	}
	vars, fns := ast.HoistedDecls(fn.Body)
	for _, v := range vars {
		sc.define(v)
	}
	for _, fd := range fns {
		layout.FnDecls = append(layout.FnDecls, ast.FnSlot{Fn: fd, Slot: sc.define(fd.Name)})
	}

	// Hoisted declarations become closures of this frame on entry (Call's
	// FnDecls loop), even when the declaration statement sits inside a
	// catch block — so their bodies resolve against this scope, never a
	// catch scope on the way down. resolve leaves FuncDecls alone for the
	// same reason.
	r.sc = sc
	for _, fd := range fns {
		r.resolveFunc(fd)
	}
	r.walk(fn.Body)
	r.sc = sc.parent
	layout.Names = sc.names
	fn.Scope = layout
}

func (r *resolver) walk(body []ast.Stmt) {
	for _, s := range body {
		ast.Walk(s, r.visit)
	}
}

// resolve is the Walk callback: it annotates what binds or references a
// name, numbers sites, and opens a scope for a function or a catch clause.
func (r *resolver) resolve(node ast.Node) bool {
	switch n := node.(type) {
	case *ast.VarDecl:
		for i := range n.Decls {
			n.Decls[i].Ref = r.lookup(n.Decls[i].Name)
		}
	case *ast.ForIn:
		n.Ref = r.lookup(n.Name)
	case *ast.Try:
		ast.Walk(n.Block, r.visit)
		if n.Catch != nil {
			csc := &scope{parent: r.sc, index: make(map[string]int)}
			csc.define(n.CatchParam)
			n.CatchScope = &ast.ScopeInfo{
				Names:         csc.names,
				SelfSlot:      -1,
				ThisSlot:      -1,
				NewTargetSlot: -1,
				ArgumentsSlot: -1,
			}
			r.sc = csc
			ast.Walk(n.Catch, r.visit)
			r.sc = csc.parent
		}
		ast.Walk(n.Finally, r.visit)
		return false
	case *ast.FuncDecl:
		// Already resolved at its hoist site (resolveFunc or ProgramFrom),
		// against the frame its closure is actually created in.
		return false
	case *ast.Func:
		r.resolveFunc(n)
		return false
	case *ast.Ident:
		if n.Intrinsic() != ast.NoIntrinsic {
			break // a runtime reference (ast.Intrinsic): no scope binds it
		}
		n.Ref = r.lookup(n.Name)
		if n.Ref.Global() {
			r.sites.Global++
			n.Site = r.sites.Global
		}
	case *ast.This:
		n.Ref = r.lookup("this")
	case *ast.NewTarget:
		n.Ref = r.lookup("new.target")
	case *ast.Member:
		if !n.Computed {
			// A member's site is numbered after its object's.
			ast.Walk(n.X, r.visit)
			r.sites.Member++
			n.Site = r.sites.Member
			return false
		}
	}
	return true
}
