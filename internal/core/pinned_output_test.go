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
// prints the new value — and says so. Last recomputed when a frame became
// one array, [label, fn, self, saved…], saving only the locals live across
// some call site: every instrumented function's pushes, restore block and
// re-entries moved, and its normal-mode code did not.
const pinnedOutputSum = "83b6064762850d1922255bb92f420486e008bd49d3f41197962f084f8737e13d"

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
