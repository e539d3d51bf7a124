package core_test

import (
	"testing"

	"repro/internal/core"
)

// Regression tests for the numeric-coercion and array-semantics fixes that
// rode along with the shape/inline-cache work, plus end-to-end property
// semantics exercising the caches the way user programs do: raw execution
// (resolved trees with per-site ICs) and the full Stopify pipeline (whose
// getter sub-language routes access through $rawGet).

// rawPrints holds src, raw on the serving engine, to want.
func rawPrints(t *testing.T, src, want string) {
	t.Helper()
	inline(t.Name(), src, want, core.Defaults()).hold(t, cell{engine: core.BackendBytecode})
}

func TestToInt32Uint32LargeMagnitude(t *testing.T) {
	// int64(math.Trunc(1e20)) is out of range; the spec's modulo-2^32
	// reduction is not. 1e20|0 must be 1661992960, not 0.
	rawPrints(t, `console.log(1e20|0, 1e20>>>0, -1e20|0, (-3.5)>>>0, ~1e20);`, "1661992960 1661992960 -1661992960 4294967293 -1661992961\n")
}

func TestNegativeZeroStringification(t *testing.T) {
	// String(-0) is "0" (ES5 §9.8.1); -0 itself keeps its sign for
	// arithmetic (1/-0 === -Infinity); and o[-0] names the same property
	// as o[0].
	rawPrints(t, `console.log(String(-0), -0, 1/-0);
var o = {}; o[-0] = 7; console.log(o[0], o["0"], o[-0]);`, "0 0 -Infinity\n7 7 7\n")
}

func TestDeleteArrayElementWithNamedProps(t *testing.T) {
	// The old fast path required the array to have NO named properties, so
	// a.foo=1 made delete a[1] silently keep the element.
	rawPrints(t, `var a = [1, 2, 3];
a.foo = 1;
delete a[1];
console.log(a[1], a.length, a.foo);
delete a.foo;
console.log(a.foo);`, "undefined 3 1\nundefined\n")
}

func TestArrayLiteralElisions(t *testing.T) {
	rawPrints(t, `var a = [,1];
console.log(a.length, a[0], a[1]);
var b = [1,,3];
console.log(b.length, b.join("-"));
var c = [1,,];
console.log(c.length);
var d = [,];
console.log(d.length);
var e = [1,];
console.log(e.length);`, "2 undefined 1\n3 1--3\n2\n1\n1\n")
}

// TestBugfixesUnderStopify re-runs the same semantics through the full
// pipeline: desugar → ANF (which must tolerate elision holes) → box →
// instrument → resolve.
func TestBugfixesUnderStopify(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"coercion", `console.log(1e20|0, (-3.5)>>>0);`, "1661992960 4294967293\n"},
		{"negzero", `var o={}; o[-0]=7; console.log(String(-0), o[0]);`, "0 7\n"},
		{"delete", `var a=[1,2,3]; a.foo=1; delete a[1]; console.log(a[1], a.foo);`, "undefined 1\n"},
		{"elision", `var a=[,1,,3,,]; console.log(a.length, a.join("|"));`, "5 |1||3|\n"},
		// A catch parameter shadows a boxed local, closure in the catch body
		// included (internal/boxes' TestShadowedNamesStayUnboxed, end to end).
		{"catch-shadows-box", `var e=1; function g(){e=e+1} g(); var a,b;
			try{throw 5}catch(e){var h=function(){return e}; a=e; b=h()} console.log(a,b,e);`, "5 5 2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inline(c.name, c.src, c.want, core.Defaults()).hold(t, calmCell)
		})
	}
}

// TestPropertySemanticsThroughCaches drives repeated property access —
// monomorphic hits, shape changes mid-stream, prototype-chain hits, and
// every invalidation source — through ordinary programs so the inline
// caches are exercised exactly as user code exercises them.
func TestPropertySemanticsThroughCaches(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"constructor-shapes",
			`function P(x){this.x=x;} var s=0; for(var i=0;i<100;i++){var p=new P(i); s+=p.x;} console.log(s);`,
			"4950\n"},
		{"polymorphic-read",
			`var o={a:1,b:2}; function f(q){return q.b;} var s=0; for(var i=0;i<10;i++)s+=f(o); console.log(s, f({b:7,a:0}));`,
			"20 7\n"},
		{"proto-method-hit",
			`var proto={m:function(){return 5;}}; var o=Object.create(proto); function g(q){return q.m();} console.log(g(o)+g(o));`,
			"10\n"},
		{"delete-invalidation",
			`var o={}; function rd(q){return q.x;} o.x=1; console.log(rd(o)); delete o.x; console.log(rd(o));`,
			"1\nundefined\n"},
		{"accessor-invalidation",
			`var o={x:1}; function rd(q){return q.x;} console.log(rd(o)); Object.defineProperty(o,"x",{get:function(){return 42;}}); console.log(rd(o));`,
			"1\n42\n"},
		{"proto-mutation-invalidation",
			`var a={m:1}, b=Object.create(a); function rd(q){return q.m;} console.log(rd(b)); Object.setPrototypeOf(b,{m:9}); console.log(rd(b));`,
			"1\n9\n"},
		{"intermediate-shadow",
			`var a={}, b=Object.create(a), c=Object.create(b); a.m=3; function rd(q){return q.m;} console.log(rd(c)); b.m=8; console.log(rd(c));`,
			"3\n8\n"},
		{"set-transition-vs-proto-setter",
			`var proto={}; var o=Object.create(proto); function wr(q,v){q.z=v;} wr(o,1); var o2=Object.create(proto);
			 Object.defineProperty(proto,"z",{set:function(v){this.got=v;}}); wr(o2,5); console.log(o2.z, o2.got, o.z);`,
			"undefined 5 1\n"},
		{"set-ic-warm-site-vs-accessor-object",
			`function w(o,v){o.x=v;} var a={x:0}; w(a,1); w(a,2); var called=false;
			 var b={set x(v){called=true;}}; w(b,3); console.log(called, b.x, a.x);`,
			"true undefined 2\n"},
		{"set-ic-accessor-survives-delete-rebuild",
			`function w(o,v){o.x=v;} var d={x:0}; w(d,1); w(d,2);
			 var o={x:0,y:0}; var got; Object.defineProperty(o,"x",{set:function(v){got=v;}});
			 delete o.y; w(o,9); console.log(got, o.x);`,
			"9 undefined\n"},
		{"set-ic-accessor-survives-proto-swap",
			`function w(o,v){o.x=v;} var P={};
			 var d=Object.create(P); d.x=0; w(d,1); w(d,2);
			 var got; var q={x:0}; Object.defineProperty(q,"x",{set:function(v){got=v;}});
			 Object.setPrototypeOf(q,P); w(q,7); console.log(got, q.x);`,
			"7 undefined\n"},
		{"global-cell",
			`g1=5; function f(){return g1;} var s=0; for(var i=0;i<10;i++)s+=f(); g1=1; console.log(s+f());`,
			"51\n"},
		{"keys-order-after-delete",
			`var o={a:1,b:2,c:3}; delete o.b; o.d=4; console.log(Object.keys(o).join(","));`,
			"a,c,d\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inline(c.name, c.src, c.want, core.Defaults()).hold(t, cell{engine: core.BackendBytecode}, calmCell)
		})
	}
}

// calmCell is a program stopified under the profile it declares, run
// unpreempted on the serving engine.
var calmCell = cell{profile{"declared", core.Defaults()}, core.BackendBytecode, "checked", 0, "cold"}
