package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/parser"
	"repro/internal/printer"
)

// prelude is the runtime prelude compiled through the whole pipeline, ready
// to be spliced in front of a program's $main. It is a pure function of the
// options in preludeKey, so one compilation serves every program compiled
// under them; the statements are shared and never written after resolve.
type prelude struct {
	body    []ast.Stmt
	tmps    int       // ANF temporaries the prelude used; $main continues from here
	sites   ast.Sites // inline-cache sites the prelude used; likewise
	printed int       // printer.Size of body, the prelude's share of CompiledBytes
}

// preludeKey is every option the prelude's text or its instrumentation
// depends on. Each field has a handful of legal values, so the cache below
// is bounded by their product and needs no eviction.
type preludeKey struct {
	Ctor, Implicits, Cont, Args string
	Getters, PerStatementGuards bool
}

var (
	preludeMu       sync.Mutex
	preludes        = map[preludeKey]*prelude{}
	preludeCompiles atomic.Uint64
)

// preludeFor returns the compiled prelude for opts (already normalized),
// compiling it on first use.
func preludeFor(opts Opts) (*prelude, error) {
	key := preludeKey{
		Ctor: opts.Ctor, Implicits: opts.Implicits, Cont: opts.Cont, Args: opts.Args,
		Getters: opts.Getters, PerStatementGuards: opts.PerStatementGuards,
	}
	preludeMu.Lock()
	defer preludeMu.Unlock()
	if p, ok := preludes[key]; ok {
		return p, nil
	}
	p, err := compilePrelude(opts)
	if err != nil {
		return nil, err
	}
	preludes[key] = p
	preludeCompiles.Add(1)
	return p, nil
}

// compilePrelude runs the prelude source through the pipeline on its own.
// The result equals what the passes produce for the prelude when run over
// prelude + $main together, because nothing flows from $main back into it:
// the prelude's statements come first (so its temporaries and sites are
// numbered first), boxing and instrumentation work one function at a time,
// and prelude desugaring — every user-level option off — draws no fresh
// names, which is checked here since a name drawn would depend on how many
// $main had drawn before.
func compilePrelude(opts Opts) (*prelude, error) {
	prog, err := parser.Parse(preludeSource(opts))
	if err != nil {
		return nil, fmt.Errorf("stopify: internal prelude error: %w", err)
	}
	ast.MarkIntrinsics(prog) // every name the prelude declares or calls is the runtime's
	nm := &desugar.Namer{}
	desugar.Apply(prog, desugar.Options{}, nm)
	if nm.Fresh("") != "1" {
		return nil, fmt.Errorf("stopify: internal prelude error: desugaring drew fresh names")
	}
	tmps, err := lower(prog, opts.forPrelude(), 0, ast.Sites{})
	if err != nil {
		return nil, fmt.Errorf("stopify: internal prelude error: %w", err)
	}
	return &prelude{
		body:    prog.Body,
		tmps:    tmps,
		sites:   prog.Sites,
		printed: printer.Size(prog),
	}, nil
}

// forPrelude is opts as the prelude is lowered under them: it names and
// assigns its formals, which complete-arguments user code (arguments[i]) does
// not, so there its frames are the mixed sub-language's, re-entered the same way.
func (o Opts) forPrelude() Opts {
	if o.Args == "full" {
		o.Args = "mixed"
	}
	return o
}

// preludeSource assembles the JavaScript runtime prelude for the selected
// sub-language. Prelude functions are compiled through the same pipeline as
// user code (so a user valueOf that captures a continuation unwinds cleanly
// through $add or $construct), but they are never themselves rewritten in
// terms of each other: implicit and getter desugaring apply to user code
// only.
func preludeSource(opts Opts) string {
	var b strings.Builder
	if opts.Ctor == "direct" {
		b.WriteString(preludeConstruct)
	}
	if opts.Implicits != "none" {
		b.WriteString(preludeToPrim)
		b.WriteString(preludePlus)
	}
	if opts.Implicits == "full" {
		b.WriteString(preludeArith)
	}
	if opts.Getters {
		b.WriteString(preludeGetters)
	}
	return b.String()
}

// preludeConstruct desugars `new` (§3.2): allocate as `new` does (the
// $create native, which a guest cannot replace as it can Object.create),
// apply the constructor as a plain function, and honor the override-by-object
// rule. Bound functions are unwrapped first ($boundFn/$boundArgs natives):
// applying a bound function would substitute boundThis for the fresh
// object, but `new boundFn(...)` must construct the ultimate target with
// the bound args prepended and boundThis ignored. The unwrapping stays in
// JS so a constructor body that captures a continuation never has a native
// construct frame above it.
const preludeConstruct = `
function $construct(f, args) {
  var t = $boundFn(f);
  while (t !== undefined) {
    args = $boundArgs(f, args);
    f = t;
    t = $boundFn(f);
  }
  var o = $create(f.prototype);
  var r = f.apply(o, args);
  if (r !== null && (typeof r === "object" || typeof r === "function")) {
    return r;
  }
  return o;
}
`

// preludeToPrim is ToPrimitive with user valueOf/toString calls exposed as
// ordinary (instrumented) applications — the implicit calls of §4.1.
const preludeToPrim = `
function $toPrim(v, hint) {
  if (v === null || (typeof v !== "object" && typeof v !== "function")) {
    return v;
  }
  var m1 = v.valueOf;
  var m2 = v.toString;
  if (hint === "string") {
    var tmp = m1; m1 = m2; m2 = tmp;
  }
  if (typeof m1 === "function") {
    var r1 = m1.call(v);
    if (r1 === null || (typeof r1 !== "object" && typeof r1 !== "function")) {
      return r1;
    }
  }
  if (typeof m2 === "function") {
    var r2 = m2.call(v);
    if (r2 === null || (typeof r2 !== "object" && typeof r2 !== "function")) {
      return r2;
    }
  }
  throw new TypeError("cannot convert object to primitive value");
}
`

// preludePlus exposes the + operator's implicit conversions (the JSweet
// sub-language needs only this much, Figure 5).
const preludePlus = `
function $add(a, b) {
  a = $toPrim(a, "default");
  b = $toPrim(b, "default");
  return a + b;
}
`

// preludeArith exposes every remaining conversion site for the full
// implicits mode (JavaScript-as-source, §4.1).
const preludeArith = `
function $sub(a, b) { return $toPrim(a, "number") - $toPrim(b, "number"); }
function $mul(a, b) { return $toPrim(a, "number") * $toPrim(b, "number"); }
function $div(a, b) { return $toPrim(a, "number") / $toPrim(b, "number"); }
function $mod(a, b) { return $toPrim(a, "number") % $toPrim(b, "number"); }
function $lt(a, b) { return $toPrim(a, "number") < $toPrim(b, "number"); }
function $le(a, b) { return $toPrim(a, "number") <= $toPrim(b, "number"); }
function $gt(a, b) { return $toPrim(a, "number") > $toPrim(b, "number"); }
function $ge(a, b) { return $toPrim(a, "number") >= $toPrim(b, "number"); }
function $neg(a) { return -$toPrim(a, "number"); }
function $tonum(a) { return +$toPrim(a, "number"); }
function $eq(a, b) {
  var ao = a !== null && (typeof a === "object" || typeof a === "function");
  var bo = b !== null && (typeof b === "object" || typeof b === "function");
  if (ao && !bo) { return $eq($toPrim(a, "default"), b); }
  if (bo && !ao) { return $eq(a, $toPrim(b, "default")); }
  return a == b;
}
function $ne(a, b) { return !$eq(a, b); }
`

// preludeGetters routes property access through accessor lookup so user
// getters and setters run as instrumented calls (§4.3).
const preludeGetters = `
function $get(o, k) {
  var g = $lookupGetter(o, k);
  if (g !== undefined) {
    return g.call(o);
  }
  return $rawGet(o, k);
}
function $set(o, k, v) {
  var s = $lookupSetter(o, k);
  if (s !== undefined) {
    s.call(o, v);
    return v;
  }
  return $rawSet(o, k, v);
}
`
