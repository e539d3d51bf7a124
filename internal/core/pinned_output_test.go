package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/langs"
)

// pinnedOutputSum is the sha-256 of every compile pinnedCompiles enumerates.
// A pass refactor must leave it alone; a change that means to alter generated
// code (or the internal/langs corpus) recomputes it — the failure message
// prints the new value — and says so. Last recomputed when the $construct
// prelude came to allocate with $create and a desugared for-in to enumerate
// with $forInKeys, natives a guest cannot replace as it can Object.create and
// Object.keys: every direct-constructor compile moved (the prelude is part of
// its Source()), and the wrapped ones of the 11 programs with a for-in.
const pinnedOutputSum = "f9d92905500410a813bbdb98b561387ab09f77c2c711b4d7dcb9354e20ed8c67"

// pinnedCompiles feeds every (program, options) pair of the pin to visit:
// each internal/langs program under its profile's sub-language, across the
// three continuation strategies and both constructor modes, then as full
// JavaScript with every optional desugaring on, then once with the paper's
// literal per-statement guards.
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
			visit(name, b.Source, full)
			guards := p.Opts(core.Defaults())
			guards.PerStatementGuards = true
			visit(name, b.Source, guards)
		}
	}
}

// TestCompiledOutputPinned is what "same behaviour" means for a compile-pass
// change: not one byte of Source() moves, under any strategy, constructor
// mode or sub-language, for any program of the corpus.
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
		n++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedOutputSum {
		t.Fatalf("compiled output changed: sha-256 over %d compiles is %s, pinned %s", n, got, pinnedOutputSum)
	}
}
