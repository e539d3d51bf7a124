package interp

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/parser"
	"repro/internal/resolve"
)

// A chunk-run function's `arguments` slot holds the call's argument vector
// (argsValue) until something looks. These tests hold the vector to where it
// may be: that slot, while that call is on the Go stack, read by the three
// opcodes and by nothing else.

// holdsArgsTag walks everything reachable from the realm's global frame —
// objects, their properties and elements, closures, the frames they closed
// over — and the spare frames of arena, and reports the first place an
// argsValue sits.
func holdsArgsTag(in *Interp, arena *opStack) string {
	seenObj := map[*Object]bool{}
	seenEnv := map[*Env]bool{}
	var found string
	var value func(v Value, where string)
	var env func(e *Env, where string)
	value = func(v Value, where string) {
		if v.tag == tagArgs && found == "" {
			found = where
		}
		o := v.Obj()
		if o == nil || seenObj[o] {
			return
		}
		seenObj[o] = true
		for i := range o.slots {
			value(o.slots[i], where+"."+o.shape.keys[i])
		}
		for _, el := range o.Elems {
			value(el, where+"[]")
		}
		if o.Fn != nil {
			env(o.Fn.Env, where+"<env>")
		}
		if b := o.Bound(); b != nil {
			value(b.Target, where+"<bound>")
			for _, a := range b.Args {
				value(a, where+"<boundarg>")
			}
		}
	}
	env = func(e *Env, where string) {
		for ; e != nil && !seenEnv[e]; e = e.parent {
			seenEnv[e] = true
			for i, v := range e.slots[:cap(e.slots)] {
				value(v, where+"#"+strconv.Itoa(i))
			}
			for k, c := range e.cells {
				value(c.v, k)
			}
		}
	}
	env(in.Global, "global")
	if arena != nil {
		for _, s := range arena.free6 {
			for _, v := range s.buf {
				value(v, "free6")
			}
		}
		for _, s := range arena.free16 {
			for _, v := range s.buf {
				value(v, "free16")
			}
		}
		for _, free := range arena.freeBig {
			for _, e := range free {
				for _, v := range e.slots[:cap(e.slots)] {
					value(v, "freeBig")
				}
			}
		}
	}
	return found
}

// TestNoSentinelOutlivesCall: after calls whose frames escape, throw, leave
// mid-body (which is what a capture is to the engine) and hit the stack
// limit, no frame the realm can reach — escaped, or pooled in the arena it
// borrowed — holds an argument vector, no native was handed one, and the
// operand stack the realm borrowed goes back to the process-wide pool holding
// none of its actuals.
func TestNoSentinelOutlivesCall(t *testing.T) {
	const src = `
var kept = [];
function escapes(a, b) { var n = arguments.length; kept.push(function () { return n + a; }); return n; }
function arrowAfter(a) { return () => arguments; }
function arrowDuring(a) { return (() => arguments[0] + arguments.length)(); }
function hoisted(a) { function inner() { return a; } return arguments.length + inner(); }
function inCatch(a) { try { throw a; } catch (e) { kept.push(function () { return e; }); return arguments[0]; } }
function throwsLazy(a) { if (arguments.length > 0) { throw new Error("thrown with " + arguments[0]); } }
function leavesMidBody(a, b) { peek(arguments.length, arguments[1]); if (a) { return arguments[0]; } peek(arguments); return b; }
function handsOver(a) { peek(arguments); peek(arguments[0], arguments[5], arguments.length); return peek.apply(null, arguments); }
function deep(a) { return arguments.length + deep(a + 1); }
function big(a) {
  var v0=0,v1=1,v2=2,v3=3,v4=4,v5=5,v6=6,v7=7,v8=8,v9=9,v10=10,v11=11,v12=12,v13=13,v14=14,v15=15,v16=16,v17=17;
  return arguments.length + v17 + a;
}
function run() {
  var log = [];
  log.push(escapes("secret-a", "secret-b"), arrowAfter("secret-c")()[0], arrowDuring("secret-d"), hoisted("secret-e"));
  log.push(inCatch("secret-f"), leavesMidBody("secret-g", "secret-h"), leavesMidBody(0, "secret-i"), handsOver("secret-j"), big("secret-k"));
  try { throwsLazy("secret-l"); } catch (e) { log.push(e.message); }
  try { deep(0); } catch (e) { log.push(e.name); }
  return log.join(",");
}
console.log(run());
`
	const want = "2,secret-c,secret-d1,1secret-e,secret-f,secret-g,secret-i,1,18secret-k,thrown with secret-l,RangeError\n"
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Bytecode: true})
	var borrowed *opStack
	handed := 0
	in.Global.Define("peek", ObjectValue(in.NewNative("peek", func(in *Interp, this Value, args []Value) (Value, error) {
		borrowed = in.ops
		for _, a := range args {
			handed++
			if a.tag > TagObject {
				t.Errorf("a native was handed an engine-internal value (tag %d)", a.tag)
			}
		}
		return NumberValue(float64(len(args))), nil
	})))
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("printed %q, want %q", buf.String(), want)
	}
	if handed < 8 || in.ChunkRuns() == 0 {
		t.Fatalf("natives saw %d values over %d chunk runs: the program did not run as written", handed, in.ChunkRuns())
	}
	if where := holdsArgsTag(in, borrowed); where != "" {
		t.Errorf("an argument vector outlived its call at %s", where)
	}
	// escapes, arrowAfter, arrowDuring, hoisted, inCatch (frames that escape),
	// leavesMidBody once and handsOver (the object is asked for), deep never:
	// everything else read its actuals in place.
	if got := in.ArgumentsBuilt(); got != 7 {
		t.Errorf("%d arguments objects built, want 7", got)
	}
	if borrowed == nil || in.ops != nil {
		t.Fatalf("operand stack: borrowed %v, still held %v", borrowed, in.ops)
	}
	for i, v := range borrowed.buf {
		if v != (Value{}) {
			t.Fatalf("operand stack slot %d went back to the pool holding %v: the next realm to borrow it could read this one's actuals", i, v)
		}
	}
}

// TestArgumentsOwnershipCopies: the two callers that hold a guest-visible
// array pass Call a copy, so a callee reading its actuals in place never sees
// a later write to the array.
func TestArgumentsOwnershipCopies(t *testing.T) {
	out := runBoth(t, `
var arr = [1, 2];
function g(a) { arr[0] = 99; arr.length = 0; return a + "," + arguments[0] + "," + arguments.length; }
console.log(g.apply(null, arr), arr.length);`)
	if out != "1,1,2 0\n" {
		t.Fatalf("got %q", out)
	}
}
