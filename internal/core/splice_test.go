package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// preludeOptsMatrix is every combination of the options that change the
// prelude's text or its instrumentation, crossed with Debug (which rewrites
// only $main, and so must leave the prelude's share untouched).
func preludeOptsMatrix() []core.Opts {
	var out []core.Opts
	for _, ctor := range []string{"direct", "wrapped"} {
		for _, impl := range []string{"none", "plus", "full"} {
			for _, cont := range []string{"checked", "exceptional", "eager"} {
				for _, args := range []string{"none", "varargs", "mixed", "full"} {
					for _, getters := range []bool{false, true} {
						for _, debug := range []bool{false, true} {
							o := core.Defaults()
							o.Ctor, o.Implicits, o.Cont, o.Args = ctor, impl, cont, args
							o.Getters, o.Debug = getters, debug
							out = append(out, o)
						}
					}
				}
			}
		}
	}
	return out
}

// checkSplice holds one (program, options) pair to the whole-tree reference.
func checkSplice(t *testing.T, name, src string, o core.Opts) {
	t.Helper()
	want, err := core.CompileWholeTree(src, o)
	if err != nil {
		t.Fatalf("%s: reference compile: %v", name, err)
	}
	c, err := core.Compile(src, o)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	got := c.Source()
	if got != want {
		t.Fatalf("%s under %+v: spliced program differs from the whole-tree compile\n%s", name, o, firstDiff(got, want))
	}
	if c.CompiledBytes != len(got) {
		t.Fatalf("%s under %+v: CompiledBytes = %d, Source() is %d bytes", name, o, c.CompiledBytes, len(got))
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Sprintf("first difference at byte %d:\n got: …%q\nwant: …%q", i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// TestSplicedCompileMatchesWholeTree is the byte-identity guarantee behind
// the cached prelude: compiling $main alone and splicing it behind a prelude
// compiled once prints exactly what running every pass over prelude + $main
// together printed. Every corpus program is checked under its own options;
// the 288-combination matrix is laid over the corpus on a stride, so each
// program meets 18 combinations and each combination some fifteen programs,
// and the empty program (the prelude alone) meets all of them. The programs
// are checked side by side: the test is compiles and nothing else.
func TestSplicedCompileMatchesWholeTree(t *testing.T) {
	progs := corpus(t)
	matrix := preludeOptsMatrix()
	const stride = 16
	for i, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			checkSplice(t, p.name, p.src, p.needs)
			for j := i % stride; j < len(matrix); j += stride {
				checkSplice(t, p.name, p.src, matrix[j])
			}
		})
	}
	for _, o := range matrix {
		checkSplice(t, "(empty)", "", o)
	}
	// PerStatementGuards changes how the prelude is instrumented too.
	o := core.Defaults()
	o.PerStatementGuards, o.Implicits, o.Getters = true, "full", true
	for _, p := range progs[:20] {
		checkSplice(t, p.name, p.src, o)
	}
}
