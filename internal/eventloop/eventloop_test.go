package eventloop

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFIFOOrdering(t *testing.T) {
	loop := New(NewVirtualClock())
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		loop.Post(func() { got = append(got, i) }, 0)
	}
	if n := loop.Run(); n != 5 {
		t.Fatalf("ran %d tasks, want 5", n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want FIFO", got)
		}
	}
}

func TestTimerOrdering(t *testing.T) {
	clock := NewVirtualClock()
	loop := New(clock)
	var got []string
	loop.Post(func() { got = append(got, "late") }, 50)
	loop.Post(func() { got = append(got, "early") }, 10)
	loop.Post(func() { got = append(got, "now") }, 0)
	loop.Run()
	want := []string{"now", "early", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if clock.Now() < 50 {
		t.Errorf("virtual clock should advance to the last timer, now=%v", clock.Now())
	}
}

func TestTaskEnqueuesTask(t *testing.T) {
	loop := New(NewVirtualClock())
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < 10 {
			loop.Post(reschedule, 0)
		}
	}
	loop.Post(reschedule, 0)
	loop.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestStop(t *testing.T) {
	loop := New(NewVirtualClock())
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count == 3 {
			loop.Stop()
		}
		loop.Post(reschedule, 0)
	}
	loop.Post(reschedule, 0)
	loop.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped)", count)
	}
}

func TestTaskDurations(t *testing.T) {
	clock := NewVirtualClock()
	loop := New(clock)
	loop.TaskDurations = []float64{} // opt in
	loop.Post(func() { clock.Advance(25) }, 0)
	loop.Post(func() { clock.Advance(75) }, 0)
	loop.Run()
	if len(loop.TaskDurations) != 2 {
		t.Fatalf("durations = %v", loop.TaskDurations)
	}
	if loop.TaskDurations[0] != 25 || loop.TaskDurations[1] != 75 {
		t.Errorf("durations = %v, want [25 75]", loop.TaskDurations)
	}
}

// TestTaskDurationsOptIn: a loop whose owner did not ask for durations
// records none, however many tasks it runs.
func TestTaskDurationsOptIn(t *testing.T) {
	clock := NewVirtualClock()
	loop := New(clock)
	ran := 0
	for range 10000 {
		loop.Post(func() { ran++; clock.Advance(1) }, 0)
	}
	loop.Run()
	if ran != 10000 {
		t.Fatalf("ran %d tasks, want 10000", ran)
	}
	if loop.TaskDurations != nil {
		t.Errorf("a loop that did not ask recorded %d durations", len(loop.TaskDurations))
	}
}

func TestRunOne(t *testing.T) {
	loop := New(NewVirtualClock())
	ran := false
	loop.Post(func() { ran = true }, 0)
	if !loop.RunOne() {
		t.Fatal("RunOne should run the queued task")
	}
	if !ran {
		t.Fatal("task did not run")
	}
	if loop.RunOne() {
		t.Fatal("RunOne on empty queue should report false")
	}
}

func TestRealClockAdvance(t *testing.T) {
	c := NewRealClock()
	t0 := c.Now()
	c.Advance(5)
	if c.Now()-t0 < 4 {
		t.Errorf("real clock should sleep ~5ms, advanced %.2f", c.Now()-t0)
	}
}

func TestVirtualClockNoWall(t *testing.T) {
	start := time.Now()
	clock := NewVirtualClock()
	loop := New(clock)
	loop.Post(func() {}, 10000) // 10 virtual seconds
	loop.Run()
	if time.Since(start) > time.Second {
		t.Error("virtual clock must not sleep on the wall clock")
	}
	if clock.Now() < 10000 {
		t.Error("virtual clock should have jumped to the timer's due time")
	}
}

// TestHeapFIFOAmongEqualDue: many tasks over a few due times run in due
// order, and in post order within one due time.
func TestHeapFIFOAmongEqualDue(t *testing.T) {
	loop := New(NewVirtualClock())
	rng := rand.New(rand.NewPCG(1, 2))
	type ran struct {
		due float64
		i   int
	}
	var got []ran
	for i := 0; i < 1000; i++ {
		due := float64(5 * rng.IntN(4))
		loop.Post(func() { got = append(got, ran{due, i}) }, due)
	}
	loop.Run()
	if len(got) != 1000 {
		t.Fatalf("ran %d tasks, want 1000", len(got))
	}
	for k := 1; k < len(got); k++ {
		a, b := got[k-1], got[k]
		if a.due > b.due || (a.due == b.due && a.i > b.i) {
			t.Fatalf("task %d (due %v) ran after task %d (due %v)", b.i, b.due, a.i, a.due)
		}
	}
}

// TestPendingPostOrder: Pending lists tasks in post order, whatever their
// due times, each due as an offset from now.
func TestPendingPostOrder(t *testing.T) {
	clock := NewVirtualClock()
	clock.Advance(100)
	loop := New(clock)
	rng := rand.New(rand.NewPCG(3, 4))
	var dues []float64
	for i := 0; i < 500; i++ {
		due := float64(rng.IntN(50))
		dues = append(dues, due)
		if i%3 == 0 {
			loop.PostTimer(0, func() {}, due, i)
		} else {
			loop.PostTask(func() {}, due, i)
		}
	}
	got := loop.Pending()
	if len(got) != len(dues) {
		t.Fatalf("Pending listed %d tasks, want %d", len(got), len(dues))
	}
	for i, p := range got {
		if p.Desc != i || p.Due != dues[i] {
			t.Fatalf("Pending[%d] = %+v, want desc %d due %v", i, p, i, dues[i])
		}
		if wantTimer := i%3 == 0; (p.Handle != 0) != wantTimer {
			t.Fatalf("Pending[%d].Handle = %d, timer %v", i, p.Handle, wantTimer)
		}
	}
}

// TestClearTimer: clearing removes the entry wherever it sits in the queue;
// an unknown or already-fired handle is ignored; handles run 1, 2, 3… and
// keep counting past cleared ones.
func TestClearTimer(t *testing.T) {
	loop := New(NewVirtualClock())
	var got []int
	var h []uint64
	for i := 0; i < 6; i++ {
		h = append(h, loop.PostTimer(0, func() { got = append(got, i) }, float64(10*i), nil))
	}
	for i, id := range h {
		if id != uint64(i+1) {
			t.Fatalf("handles = %v, want 1, 2, 3…", h)
		}
	}
	loop.ClearTimer(h[0]) // the head
	loop.ClearTimer(h[3]) // a middle entry
	loop.ClearTimer(999)  // unknown
	if n := loop.Len(); n != 4 {
		t.Fatalf("Len after two clears = %d, want 4", n)
	}
	loop.RunOne()
	loop.ClearTimer(h[1]) // already fired
	if n := loop.Len(); n != 3 {
		t.Fatalf("Len after clearing a fired handle = %d, want 3", n)
	}
	loop.Run()
	if want := []int{1, 2, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if id := loop.PostTimer(0, func() {}, 0, nil); id != 7 {
		t.Fatalf("next handle = %d, want 7", id)
	}
	loop.SetTimerSeq(41)
	if id := loop.PostTimer(0, func() {}, 0, nil); id != 42 || loop.TimerSeq() != 42 {
		t.Fatalf("handle after SetTimerSeq(41) = %d (seq %d), want 42", id, loop.TimerSeq())
	}
}

// TestConcurrentTimers: goroutines post tasks and set and clear timers
// while the owner pumps what is due, as a controller and a guest share a
// loop. Every task runs once, and no cleared timer is left queued.
func TestConcurrentTimers(t *testing.T) {
	loop := New(NewVirtualClock())
	const posters, each = 4, 500
	var ran atomic.Int32
	var wg sync.WaitGroup
	wg.Add(posters)
	for p := 0; p < posters; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				loop.PostTask(func() { ran.Add(1) }, 0, i)
				h := loop.PostTimer(0, func() { t.Error("a cleared timer ran") }, 1000, nil)
				loop.ClearTimer(h)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for pumping := true; pumping; {
		select {
		case <-done:
			pumping = false
		default:
		}
		// Only what is due: the clock stays put, as on a supervisor's worker.
		for due, ok := loop.NextDue(); ok && due <= 0; due, ok = loop.NextDue() {
			loop.RunOne()
		}
	}
	if n := loop.Len(); n != 0 {
		t.Fatalf("%d tasks left queued, want 0", n)
	}
	if n := ran.Load(); n != posters*each {
		t.Fatalf("%d tasks ran, want %d", n, posters*each)
	}
	if got := loop.TimerSeq(); got != posters*each {
		t.Fatalf("TimerSeq = %d, want one handle per timer (%d)", got, posters*each)
	}
}
