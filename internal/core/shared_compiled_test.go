package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// sharedProgram touches what a shared *Compiled shares: prelude functions
// ($construct, $add and friends, $get/$set) whose statements every program
// under these options points at, inline-cache sites on both sides of the
// prelude/$main seam, closures, exceptions, and an eval fragment numbered
// from the realm's own site count.
const sharedProgram = `
function P(x, y) { this.x = x; this.y = y; }
P.prototype.norm = function () { return this.x * this.x + this.y * this.y; };
var box = { valueOf: function () { return 40; } };
var acc = { get twice() { return this.n * 2; }, n: 0 };
function mk(k) { return function (v) { return v + k; }; }
var add3 = mk(3);
var total = 0;
for (var i = 0; i < 300; i++) {
  var p = new P(i, box + i);
  acc.n = p.norm() % 1009;
  total = (total + add3(acc.twice)) % 1000003;
  if (i % 97 === 0) {
    try { null.f; } catch (e) { total = total + 1; }
  }
}
eval("var late = {y: 2}; lateY = late.y;");
console.log("total", total + lateY, "" + box);
`

// unpublished counts the functions of prog no realm has yet called on the
// bytecode engine.
func unpublished(prog *ast.Program) (n int) {
	ast.Walk(prog, func(node ast.Node) bool {
		if fn, ok := node.(*ast.Func); ok && fn.Code.Load() == nil {
			n++
		}
		return true
	})
	return n
}

var sharedTakes atomic.Int64

// TestSharedCompiledConcurrentRuns runs one *Compiled from eight goroutines
// at once on each engine. The memo hands the same program to every caller,
// so its tree must be read-only at run time and each realm's caches its
// own; the race detector checks the first, equal outputs the second. The
// one thing a run does write to the tree is a function's chunk, on the
// first call any realm makes: the tree-walker leg goes first and leaves
// $main's functions uncompiled, so the bytecode leg's eight goroutines,
// released together, race to publish them.
func TestSharedCompiledConcurrentRuns(t *testing.T) {
	opts := core.Defaults()
	opts.Implicits, opts.Getters, opts.Eval = "full", true, true
	opts.Timer, opts.CountdownN = "countdown", 100 // capture and reinstate often
	// A text the memo has not seen, also under -count: its functions must
	// be uncompiled when the bytecode leg starts.
	src := fmt.Sprintf("%s// take %d\n", sharedProgram, sharedTakes.Add(1))
	c, err := core.CompileCached(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := core.CompileCached(src, opts); again != c {
		t.Fatal("CompileCached compiled the same text twice")
	}
	want, err := core.RunRaw(src, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		cold := unpublished(c.Prog)
		if cold < 5 {
			t.Fatalf("%s: only %d functions are still uncompiled; the first-call race needs $main's", backend, cold)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for rep := 0; rep < 3; rep++ {
					var out bytes.Buffer
					run, err := c.NewRun(core.RunConfig{Out: &out, Backend: backend})
					if err != nil {
						t.Error(err)
						return
					}
					if err := run.RunToCompletion(); err != nil {
						t.Errorf("%s goroutine %d: %v", backend, g, err)
						return
					}
					if out.String() != want {
						t.Errorf("%s goroutine %d printed %q, want %q", backend, g, out.String(), want)
					}
					_ = c.Source() // printing reads the shared tree too
				}
			}()
		}
		close(start)
		wg.Wait()
		if left := unpublished(c.Prog); backend == core.BackendTree && left != cold {
			t.Errorf("the tree-walker published %d chunks", cold-left)
		} else if backend == core.BackendBytecode && left == cold {
			t.Error("24 bytecode runs published no chunk")
		}
	}
}

// watchCollected sets a finalizer on fn and returns the channel it closes.
func watchCollected(fn *ast.Func) <-chan struct{} {
	gone := make(chan struct{})
	runtime.SetFinalizer(fn, func(*ast.Func) { close(gone) })
	return gone
}

// TestChunksDieWithTheirTree checks that running a program on the bytecode
// engine leaves nothing behind that keeps its tree alive: a chunk hangs off
// its function and no process-wide table holds either, so a *Compiled the
// memo has dropped, and a RunRaw program once it returns, are collectable.
func TestChunksDieWithTheirTree(t *testing.T) {
	const src = `function f(n) { return n < 2 ? n : f(n - 1) + f(n - 2); } console.log(f(10));`
	programs := map[string]func() <-chan struct{}{
		"compiled": func() <-chan struct{} {
			c, err := core.Compile(src, core.Defaults()) // cold: the memo never sees it
			if err != nil {
				t.Fatal(err)
			}
			run, err := c.NewRun(core.RunConfig{Backend: core.BackendBytecode})
			if err == nil {
				err = run.RunToCompletion()
			}
			if err != nil {
				t.Fatal(err)
			}
			return watchCollected(c.Prog.Body[len(c.Prog.Body)-1].(*ast.ExprStmt).X.(*ast.Func))
		},
		"raw": func() <-chan struct{} {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			resolve.Program(prog)
			if err := interp.New(interp.Options{Bytecode: true}).RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			return watchCollected(prog.Body[0].(*ast.FuncDecl).Fn)
		},
	}
	for name, runAndDrop := range programs {
		t.Run(name, func(t *testing.T) {
			gone := runAndDrop()
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-gone:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the program's tree was still reachable after its run was dropped")
		})
	}
}

// runAllocBytes runs c to completion and reports the bytes the Go heap
// handed out meanwhile.
func runAllocBytes(t *testing.T, c *core.Compiled, want string) uint64 {
	t.Helper()
	var out bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := c.NewRun(core.RunConfig{Out: &out})
	if err == nil {
		err = run.RunToCompletion()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestLateEvalAllocation pins a bug of process-unique site IDs: a realm's
// inline-cache tables spanned the band of IDs it touched, so a guest
// compiled early whose body evals after the process has compiled thousands
// of other programs stretched its tables across all of them — 117 MB for
// 20 000 programs between, against 177 KB for a freshly compiled twin, none
// of it charged to the guest's memory budget. With program-relative sites a
// run costs what its own code costs, whenever it was compiled. 2 000
// programs between is already a twenty-fold gap at the parent.
func TestLateEvalAllocation(t *testing.T) {
	opts := core.Defaults()
	opts.Eval = true
	opts.YieldIntervalMs = 0
	const src = `var o = {x: 1}; eval("var q = {y: 2}; r = q.y;"); console.log(o.x + r);`
	const want = "3\n"
	early, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := core.Compile(fmt.Sprintf(`var a = {p: %d}; a.q = a.p;`, i), opts); err != nil {
			t.Fatal(err)
		}
	}
	control, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	runAllocBytes(t, control, want) // first realm pays process-wide one-offs
	ctl := runAllocBytes(t, control, want)
	late := runAllocBytes(t, early, want)
	t.Logf("control %d KB, early-compiled %d KB", ctl/1024, late/1024)
	if late > 2*ctl {
		t.Errorf("the early-compiled guest allocated %d KB, its fresh twin %d KB: more than 2x", late/1024, ctl/1024)
	}
}
