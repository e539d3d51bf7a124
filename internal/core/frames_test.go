package core_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eventloop"
)

// A captured frame is [label, fn, self, saved…] — data, saving the locals
// live across some call site. These tests hold the layout to what it was
// introduced for: no closure in any instrumented function, and re-entry
// through fn, self and the saved locals alone reproducing what the reenter
// thunk of Figure 3 did, under every strategy and arity sub-language.

// TestFramesHoldNoClosure: across the differential corpus, compilation
// leaves no arrow function and no $reenter binding — the only arrows the
// pipeline ever emitted were the frames' thunks (user arrows are desugared
// to named functions), and the only thing that made a captured activation's
// environment escape.
func TestFramesHoldNoClosure(t *testing.T) {
	funcs := 0
	for _, p := range corpus(t) {
		c, err := core.Compile(p.src, p.needs)
		if err != nil {
			continue // what does not compile is the matrix's to report
		}
		ast.Walk(c.Prog, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Func:
				funcs++
				if n.Arrow {
					t.Errorf("%s: %s compiles to an arrow function", p.name, n.Name)
				}
			case *ast.Ident:
				if n.Name == "$reenter" {
					t.Errorf("%s: a $reenter reference survives compilation", p.name)
				}
			case *ast.VarDecl:
				for _, d := range n.Decls {
					if d.Name == "$reenter" {
						t.Errorf("%s: a $reenter binding survives compilation", p.name)
					}
				}
			}
			return true
		})
	}
	if funcs < 1000 {
		t.Fatalf("only %d functions walked; the corpus did not compile", funcs)
	}
}

// ccStopified captures the whole stack and reinstates it at once, so every
// frame between the call and $main is unwound into data and re-entered;
// ccRaw is the same function without the round trip.
const (
	ccStopified = "function cc(v) { return $C(function (k) { return k(v); }); }\n"
	ccRaw       = "function cc(v) { return v; }\n"
)

func TestFrameReentry(t *testing.T) {
	type variant struct{ args, ctor string }
	fullImplicits := func(o *core.Opts) { o.Implicits = "full" }
	everyArgs := []variant{{"none", "direct"}, {"varargs", "direct"}, {"mixed", "direct"}, {"full", "direct"}}
	cases := []struct {
		name     string
		src      string
		variants []variant
		tune     func(*core.Opts)
		// want overrides the raw run's output as the expectation, for what
		// raw JavaScript cannot run ($C) or a sub-language does not promise.
		want map[string]string
	}{
		{
			name: "duplicate-parameter-names",
			src: `function f(a, a, b) { var x = cc(1); return a + x + b; }
console.log(f(10, 20, 300));`,
			variants: everyArgs,
		},
		{
			// The arity sub-languages differ in exactly this, and none,
			// which promises the formals and nothing of arguments, is
			// widened to full for a program that names arguments: every
			// variant prints what raw JavaScript does.
			name: "reads-arguments",
			src: `function f(a, b) { var n = cc(arguments.length); return [n, arguments.length, arguments[2], a, b].join(":"); }
console.log(f(1, 2, 3));`,
			variants: everyArgs,
		},
		{
			// Sloppy-mode aliasing is what the complete-arguments
			// sub-language adds (the raw engine does not model it, and
			// prints 41): the write through arguments must survive re-entry.
			name: "arguments-alias-formals",
			src: `function f(a) { arguments[0] = 5; var x = cc(1); return a + x; }
console.log(f(40));`,
			variants: []variant{{"full", "direct"}},
			want:     map[string]string{"full": "6\n"},
		},
		{
			name: "method-self-is-the-receiver",
			src: `var o = {n: 7, m: function (d) { var x = cc(d); return this.n + x; }};
var bare = o.m;
console.log(o.m(1), String(bare.call({n: 100}, 2)));`,
			variants: everyArgs,
		},
		{
			name: "constructor",
			src: `function P(x) { this.x = cc(x); this.y = cc(x + 1); }
P.prototype.sum = function () { return cc(this.x) + this.y; };
var p = new P(3);
console.log(p.x, p.y, p.sum(), p instanceof P);`,
			variants: []variant{{"none", "direct"}, {"none", "wrapped"}, {"full", "direct"}, {"full", "wrapped"}},
		},
		{
			// The capture lands inside a user valueOf, under $toPrim under
			// $add: prelude functions, which name and assign their formals
			// in every sub-language. $add's second conversion must find its
			// first still converted.
			name: "prelude-formals",
			src: `var calls = 0;
var o = {valueOf: function () { calls = calls + 1; return cc(5); }};
console.log(o + o, calls);`,
			variants: everyArgs,
			tune:     fullImplicits,
		},
		{
			// Multi-shot: each application re-enters the same frames, so
			// re-entry must read locals and never write them — every pass
			// starts from loc as it was captured.
			name: "continuation-applied-twice",
			src: `var saved = null, hits = 0;
function go(a) {
  var loc = a;
  var v = $C(function (k) { saved = k; return k(0); });
  loc = loc + 1;
  hits = hits + 1;
  if (hits < 3) { saved(hits); }
  return loc + ":" + v;
}
console.log(go(10), hits);`,
			variants: everyArgs,
			want: map[string]string{
				"none": "11:2 3\n", "varargs": "11:2 3\n", "mixed": "11:2 3\n", "full": "11:2 3\n",
			},
		},
		{
			// Multi-shot through a frame that looked at its arguments. Each
			// application re-enters the same captured frame: varargs hands
			// every pass a new object over the elements as captured, so the
			// increment never accumulates; mixed and full carry the object
			// itself in locals, a heap value like any other, and it does;
			// none, widened to full for a program that names arguments, does
			// as full does.
			name: "continuation-applied-twice-arguments",
			src: `var saved = null, hits = 0;
function go(a, b) {
  var v = $C(function (k) { saved = k; return k(0); });
  arguments[1] = arguments[1] + 1;
  hits = hits + 1;
  if (hits < 3) { saved(hits); }
  return a + ":" + arguments[1] + ":" + arguments.length + ":" + v;
}
console.log(go(10, 20, 30), hits);`,
			variants: everyArgs,
			want: map[string]string{
				"none": "10:23:3:2 3\n", "varargs": "10:21:3:2 3\n", "mixed": "10:23:3:2 3\n", "full": "10:23:3:2 3\n",
			},
		},
	}
	for _, tc := range cases {
		raw, rawErr := core.RunRaw(ccRaw+tc.src, core.RunConfig{Clock: eventloop.NewVirtualClock()})
		for _, v := range tc.variants {
			want, fixed := tc.want[v.args]
			if !fixed {
				if rawErr != nil {
					t.Fatalf("%s: raw run: %v", tc.name, rawErr)
				}
				want = raw
			}
			for _, cont := range []string{"checked", "exceptional", "eager"} {
				opts := core.Defaults()
				opts.Cont, opts.Args, opts.Ctor = cont, v.args, v.ctor
				opts.Suspend, opts.YieldIntervalMs = false, 0
				if tc.tune != nil {
					tc.tune(&opts)
				}
				got, err := core.RunSource(ccStopified+tc.src, opts, core.RunConfig{Clock: eventloop.NewVirtualClock()})
				if err != nil {
					t.Errorf("%s/%s/%s/%s: %v", tc.name, cont, v.args, v.ctor, err)
					continue
				}
				if got != want {
					t.Errorf("%s/%s/%s/%s: printed %q, want %q", tc.name, cont, v.args, v.ctor, got, want)
				}
			}
		}
	}
}

// TestSnapshotParkedInsideFrames parks a guest a dozen activations deep —
// plain recursion under a method under a constructor — and restores the blob
// on the engine that parked it and on the other one. Every frame on the wire
// is an array [label, fn, self, saved…]: fn a closure by code-table index,
// self the receiver, nothing of either engine's.
func TestSnapshotParkedInsideFrames(t *testing.T) {
	const src = `
		function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i * 7) % 1000003; } return s; }
		function down(d, n) { if (d === 0) { console.log("at the bottom"); return spin(n); } return 1 + down(d - 1, n); }
		function Acc(n) { this.total = this.run(n); }
		Acc.prototype.run = function (n) { return down(12, n) + this.bias(); };
		Acc.prototype.bias = function () { return 1000; };
		var a = new Acc(4000);
		console.log(a.total, a instanceof Acc);
	`
	for _, from := range bothEngines {
		for _, to := range bothEngines {
			t.Run(from+"-to-"+to, func(t *testing.T) {
				if got := parkedOnce(t, src, core.Defaults(), from, to, 6000); !strings.HasPrefix(got, "at the bottom\n") {
					t.Fatalf("parked having printed %q: not inside the recursion", got)
				}
			})
		}
	}
}
