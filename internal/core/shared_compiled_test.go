package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
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

// TestSharedCompiledConcurrentRuns runs one *Compiled from eight goroutines
// at once on each engine. The memo hands the same program to every caller,
// so its tree must be read-only at run time and each realm's caches its
// own; the race detector checks the first, equal outputs the second.
func TestSharedCompiledConcurrentRuns(t *testing.T) {
	opts := core.Defaults()
	opts.Implicits, opts.Getters, opts.Eval = "full", true, true
	opts.Timer, opts.CountdownN = "countdown", 100 // capture and reinstate often
	c, err := core.CompileCached(sharedProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := core.CompileCached(sharedProgram, opts); again != c {
		t.Fatal("CompileCached compiled the same text twice")
	}
	want, err := core.RunRaw(sharedProgram, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
		wg.Wait()
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
