package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/langs"
)

// pinnedOutputSum is the sha-256 of every compile pinnedCompiles enumerates:
// its Source() and its resolver annotations (writeResolution). A pass
// refactor must leave it alone; a change that means to alter generated code
// (or the internal/langs corpus) recomputes it — the failure message prints
// the new value — and says so. Last recomputed when a top level's
// declarations moved out of $main into the global frame (ast.TopLevel): every
// program's compiles moved (CHANGES.md lists them).
const pinnedOutputSum = "0d7c87f007cc89d8c6ae3671388c0537d2751e5d3bc3e4cff25b73b8a9b373e2"

// pinnedCompiles feeds every (program, options) pair of the pin to visit:
// each internal/langs program under its profile's sub-language, across the
// three continuation strategies and both constructor modes, then as full
// JavaScript with every optional desugaring on — the program followed by a
// line naming eval, which keeps every option declared (core.Compiled.Opts) —
// then once with the paper's literal per-statement guards.
func pinnedCompiles(visit func(name, src string, o core.Opts)) {
	profiles := langs.All()
	js := *langs.JavaScript()
	js.Name, js.Benchmarks = "js", append(langs.OctaneLike(), langs.KrakenLike()...)
	profiles = append(profiles, &js)
	for _, p := range profiles {
		for _, b := range p.Benchmarks {
			name := p.Name + "/" + b.Name
			for _, cont := range []string{"checked", "exceptional", "eager"} {
				for _, ctor := range []string{"direct", "wrapped"} {
					o := p.Opts(core.Defaults())
					o.Cont, o.Ctor = cont, ctor
					visit(name, b.Source, o)
				}
			}
			full := core.Defaults()
			full.Implicits, full.Args = "full", "full"
			full.Getters, full.Eval, full.Debug = true, true, true
			visit(name, b.Source+"\neval;\n", full)
			guards := p.Opts(core.Defaults())
			guards.PerStatementGuards = true
			visit(name, b.Source, guards)
		}
	}
}

// TestCompiledOutputPinned is what "same behaviour" means for a compile-pass
// change: not one byte of Source() moves, nor one annotation the resolver
// writes, under any strategy, constructor mode or sub-language, for any
// program of the corpus.
func TestCompiledOutputPinned(t *testing.T) {
	h := sha256.New()
	n := 0
	pinnedCompiles(func(name, src string, o core.Opts) {
		c, err := core.Compile(src, o)
		if err != nil {
			t.Fatalf("%s under %+v: %v", name, o, err)
		}
		out := c.Source()
		fmt.Fprintf(h, "%s %s %s %d\n", name, o.Cont, o.Ctor, len(out))
		h.Write([]byte(out))
		writeResolution(h, c.Prog)
		n++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedOutputSum {
		t.Fatalf("compiled output changed: sha-256 over %d compiles is %s, pinned %s", n, got, pinnedOutputSum)
	}
}

// writeResolution folds into the pin what internal/resolve wrote, which
// Source() does not print: the site and coordinate of every reference, the
// coordinate of every declared name and each frame layout, in Walk order.
func writeResolution(w io.Writer, p *ast.Program) {
	layout := func(s *ast.ScopeInfo) {
		if s == nil {
			fmt.Fprint(w, "L-\n")
			return
		}
		fmt.Fprintf(w, "L%q %v %d %d %d %d", s.Names, s.ParamSlots, s.SelfSlot, s.ThisSlot, s.NewTargetSlot, s.ArgumentsSlot)
		for _, fd := range s.FnDecls {
			fmt.Fprintf(w, " %s@%d", fd.Fn.Name, fd.Slot)
		}
		fmt.Fprintln(w)
	}
	ast.Walk(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fmt.Fprintf(w, "i%d,%d ", n.Site, n.Ref)
		case *ast.This:
			fmt.Fprintf(w, "t%d ", n.Ref)
		case *ast.NewTarget:
			fmt.Fprintf(w, "n%d ", n.Ref)
		case *ast.Member:
			fmt.Fprintf(w, "m%d ", n.Site)
		case *ast.VarDecl:
			for _, d := range n.Decls {
				fmt.Fprintf(w, "v%d ", d.Ref)
			}
		case *ast.ForIn:
			fmt.Fprintf(w, "f%d ", n.Ref)
		case *ast.Func:
			layout(n.Scope)
		case *ast.Try:
			layout(n.CatchScope)
		}
		return true
	})
}
