package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
)

// `arguments`: on the bytecode engine a call's actuals stay where the caller
// put them and the object is built only if the callee looks (DESIGN_interp.md,
// "arguments"); the tree-walker builds it at entry. Nothing a guest can print
// tells the two apart: the rows of testdata/conformance/argsedge pin what a
// guest prints, per arity sub-language where the sub-languages differ, and
// the matrix runs them on both engines at every quantum.

var bothEngines = []string{core.BackendTree, core.BackendBytecode}

func argsOpts(mode string) core.Opts {
	opts := core.Defaults()
	opts.Args, opts.Getters, opts.Eval = mode, true, true
	return opts
}

// TestSnapshotParkedInsideArguments parks a guest inside a function that has
// looked at its arguments, written through them and kept them, under the two
// sub-languages that carry the object in locals, and restores it on all four
// engine legs: identity, contents and — under full — the aliased formal
// survive. The second guest keeps only `() => arguments` out of a function
// that never looked, parks after it returned, and reads the original actuals
// from the restored arrow.
func TestSnapshotParkedInsideArguments(t *testing.T) {
	const inside = `
		function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i * 7) % 1000003; } return s; }
		function f(a, b) {
			var saved = arguments;
			arguments[1] = "written";
			console.log("inside");
			var s = spin(3000);
			return [saved === arguments, arguments.length, arguments[0], arguments[1], arguments[2], b === "written", s].join(",");
		}
		console.log(f("p", "q", "r"));
	`
	const after = `
		function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i * 7) % 1000003; } return s; }
		function f(a, b) { return () => arguments; }
		var k = f("p", "q", "r");
		console.log("returned");
		var s = spin(3000);
		var args = k();
		console.log(args.length, args[0], args[2], args === k(), s);
	`
	for _, mode := range []string{"mixed", "full"} {
		for _, from := range bothEngines {
			for _, to := range bothEngines {
				t.Run(mode+"/"+from+"-to-"+to, func(t *testing.T) {
					if got := parkedOnce(t, inside, argsOpts(mode), from, to, 1500); got != "inside\n" {
						t.Fatalf("parked having printed %q: not inside f", got)
					}
					if got := parkedOnce(t, after, argsOpts(mode), from, to, 1500); got != "returned\n" {
						t.Fatalf("parked having printed %q: not after f returned", got)
					}
				})
			}
		}
		// parkedOnce holds each guest to its calm run; this is what the calm run prints.
		wantInside := "inside\ntrue,3,p,written,r," + map[string]string{"mixed": "false", "full": "true"}[mode] + ",489407\n"
		for src, want := range map[string]string{inside: wantInside, after: "returned\n3 p r true 489407\n"} {
			c, err := core.Compile(src, argsOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			run, buf := mustStart(t, c, "")
			pump(run, 0)
			if got := transcript(run, buf); got != want {
				t.Errorf("%s: printed %q, want %q", mode, got, want)
			}
		}
	}
}

// TestKernelsBuildNoArguments: the sixteen programs of the benchmark's
// `kernels` catalogue whose language profile compiles under varargs, mixed or
// full — named here, not imported, so that the catalogue cannot move the gate
// — build almost no arguments objects between them when stopified. Every
// instrumented function names `arguments` (its capture arm saves it), so at
// one object per call this was 234 902; what is left is the activations whose
// frame a closure captured and the few that ask for the object.
func TestKernelsBuildNoArguments(t *testing.T) {
	kernels := []struct{ suite, name string }{
		{"python", "pystone"}, {"python", "nbody"}, {"clojure", "comp_chain"}, {"clojure", "frequencies"},
		{"java", "hashmap"}, {"java", "inheritance"}, // mixed
		{"scheme", "apply_list"}, {"scheme", "sumloop"}, {"cpp", "fixedpoint"}, {"cpp", "crc32"}, // varargs
		{"javascript", "valueof_arith"}, {"javascript", "dynamic_props"}, {"octane", "splay_like"},
		{"octane", "deltablue_like"}, {"kraken", "crypto_like"}, {"kraken", "astar_like"}, // full
	}
	var built, calls uint64
	for _, k := range kernels {
		profile, suite := langs.ByName(k.suite), []langs.Benchmark(nil)
		switch k.suite {
		case "octane":
			profile, suite = langs.JavaScript(), langs.OctaneLike()
		case "kraken":
			profile, suite = langs.JavaScript(), langs.KrakenLike()
		default:
			suite = profile.Benchmarks
		}
		opts := profile.Opts(core.Defaults())
		if opts.Args == "none" {
			t.Fatalf("%s compiles under args none: not an arity-mode kernel", k.suite)
		}
		found := false
		for _, b := range suite {
			if b.Name != k.name {
				continue
			}
			found = true
			c, err := core.Compile(b.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
			if err != nil {
				t.Fatal(err)
			}
			if err := run.RunToCompletion(); err != nil {
				t.Fatalf("%s.%s: %v", k.suite, k.name, err)
			}
			built += run.In.ArgumentsBuilt()
			calls += run.In.ChunkRuns()
		}
		if !found {
			t.Fatalf("no program %s.%s", k.suite, k.name)
		}
	}
	t.Logf("%d arguments objects over %d chunk runs", built, calls)
	if built > 64 {
		t.Errorf("%d arguments objects built over %d chunk runs, gate 64: a call is building `arguments` nobody asked for", built, calls)
	}
	// 234 902 until the engine answered implicit helpers itself (interp/
	// helpers.go): five in six of those calls were $add, $toPrim, $get and
	// their kin over primitives, which now run no chunk. 35 266 are left.
	if calls < 30_000 {
		t.Errorf("only %d chunk runs: the kernels did not run", calls)
	}
}
