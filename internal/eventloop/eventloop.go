// Package eventloop is the browser event loop substrate: a single-threaded
// FIFO macrotask queue with setTimeout-style deferred tasks, the table of
// the guest's timer handles, and a pluggable clock.
//
// Stopify's execution model is built on returning to this loop: instrumented
// programs periodically capture their continuation, enqueue its resumption,
// and return, so that other events (a Pause button, a timer) can run in
// between (§2, §5.1). The loop also records how long each task ran, which is
// exactly the "time between yields" responsiveness metric of Figure 2c.
package eventloop

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"
	"time"
)

// Clock supplies the loop's notion of time in milliseconds. A virtual clock
// makes estimator and responsiveness tests deterministic.
type Clock interface {
	// Now returns the current time in milliseconds.
	Now() float64
	// Advance moves time forward; real clocks sleep, virtual clocks jump.
	Advance(ms float64)
}

// RealClock is wall-clock time.
type RealClock struct{ start time.Time }

// NewRealClock returns a Clock backed by the system timer.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() float64 { return float64(time.Since(c.start)) / float64(time.Millisecond) }

// Advance implements Clock by sleeping.
func (c *RealClock) Advance(ms float64) { time.Sleep(time.Duration(ms * float64(time.Millisecond))) }

// VirtualClock is a manually advanced clock.
type VirtualClock struct{ t float64 }

// NewVirtualClock returns a virtual clock starting at 0 ms.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() float64 { return c.t }

// Advance implements Clock.
func (c *VirtualClock) Advance(ms float64) { c.t += ms }

// Task is a unit of work on the loop.
type Task func()

// entry is one queued task. The queue is a binary heap ordered by (due,
// seq); idx is the entry's heap position, so clearing a timer by handle
// removes it in O(log n).
type entry struct {
	fn     Task
	due    float64
	seq    uint64 // post order
	handle uint64 // timer handle; 0 for a task that is not a timer
	desc   any    // serializable description; nil for a task the host posted
	idx    int
}

// Pending is one queued task as the snapshot encoder sees it.
type Pending struct {
	Desc   any     // the task's description; nil for one the host posted
	Due    float64 // milliseconds from now, ≥ 0
	Handle uint64  // the timer handle; 0 for a task that is not a timer
}

// Loop is a macrotask queue with single-threaded execution semantics: one
// goroutine at a time pumps it (Run/RunOne), exactly like the browser's
// main thread. The queue itself is mutex-guarded so that *other* goroutines
// may Post, Stop, or inspect it concurrently — that is what makes external
// Pause/Resume/Kill on a running program goroutine-safe, and what lets the
// supervisor's control plane talk to guests owned by worker goroutines.
//
// The loop also owns the guest's timers: PostTimer issues handles from one
// sequence, ClearTimer removes the entry, and Pending lists what is queued
// for a snapshot.
type Loop struct {
	Clock Clock

	mu       sync.Mutex
	queue    queue
	timers   map[uint64]*entry // pending timers by handle
	seq      uint64
	timerSeq uint64 // the last handle issued
	stopped  bool
	free     *entry // the entry step last popped, for the next post

	// TaskDurations records how long each executed task ran, in ms. In
	// browser terms this is how long the page was unresponsive, i.e. the
	// interval between yields (Figure 2c / Figure 7). A loop records only
	// while it is non-nil: an owner that wants the durations sets it to an
	// empty slice before running, so a long-lived guest, which runs two
	// tasks per preemption, does not grow it without bound.
	TaskDurations []float64

	// OnTurn, if set, is invoked between tasks; the webide example uses it
	// to poll for user input (the "browser UI thread" getting a chance to
	// run).
	OnTurn func()
}

// New returns an empty loop on the given clock.
func New(clock Clock) *Loop { return &Loop{Clock: clock} }

// Post enqueues fn to run after delayMs milliseconds, like setTimeout.
// Browsers clamp tiny delays; we run FIFO among due tasks, which preserves
// the ordering guarantees Stopify relies on.
func (l *Loop) Post(fn Task, delayMs float64) { l.PostTask(fn, delayMs, nil) }

// PostTask is Post for a task a snapshot can carry: desc describes it.
func (l *Loop) PostTask(fn Task, delayMs float64, desc any) {
	due := l.dueAt(delayMs)
	l.mu.Lock()
	l.push(l.newEntry(fn, due, desc))
	l.mu.Unlock()
}

// newEntry returns a queue entry, the one step last popped when there is
// one: a program that yields and is resumed posts one task per turn, and it
// reuses one entry. Under mu.
func (l *Loop) newEntry(fn Task, due float64, desc any) *entry {
	e := l.free
	if e == nil {
		e = new(entry)
	}
	l.free = nil
	*e = entry{fn: fn, due: due, desc: desc}
	return e
}

// PostTimer enqueues a timer under handle h, or under the next handle of
// the loop's sequence when h is 0, and returns the handle.
func (l *Loop) PostTimer(h uint64, fn Task, delayMs float64, desc any) uint64 {
	due := l.dueAt(delayMs)
	l.mu.Lock()
	e := l.newEntry(fn, due, desc)
	if h == 0 {
		h = l.timerSeq + 1
	}
	l.timerSeq = max(l.timerSeq, h)
	e.handle = h
	if l.timers == nil {
		l.timers = make(map[uint64]*entry)
	}
	l.timers[h] = e
	l.push(e)
	l.mu.Unlock()
	return h
}

// ClearTimer removes the pending timer with handle h. An unknown handle, or
// one whose timer already ran, is ignored, as clearTimeout ignores it.
func (l *Loop) ClearTimer(h uint64) {
	l.mu.Lock()
	if e, ok := l.timers[h]; ok {
		delete(l.timers, h)
		heap.Remove(&l.queue, e.idx)
	}
	l.mu.Unlock()
}

// TimerSeq reports the last timer handle issued; SetTimerSeq continues the
// sequence from n, so a restored guest's handles stay unique.
func (l *Loop) TimerSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.timerSeq
}

// SetTimerSeq sets the last timer handle issued.
func (l *Loop) SetTimerSeq(n uint64) {
	l.mu.Lock()
	l.timerSeq = n
	l.mu.Unlock()
}

// Pending lists the queued tasks in post order, each due as an offset from
// the loop clock's current time. Reposted in that order, they run in the
// order they would have run here.
func (l *Loop) Pending() []Pending {
	now := l.Clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock() // a popped entry is reused: read them all under mu
	q := slices.Clone(l.queue)
	slices.SortFunc(q, func(a, b *entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Pending, len(q))
	for i, e := range q {
		out[i] = Pending{Desc: e.desc, Due: max(e.due-now, 0), Handle: e.handle}
	}
	return out
}

// dueAt is when a task posted now with delayMs is due. A negative or NaN
// delay is 0, as in a browser; a NaN due time would break the heap's order.
func (l *Loop) dueAt(delayMs float64) float64 {
	if !(delayMs > 0) {
		delayMs = 0
	}
	return l.Clock.Now() + delayMs
}

// push queues e under mu, stamping its post order.
func (l *Loop) push(e *entry) {
	e.seq = l.seq
	l.seq++
	heap.Push(&l.queue, e)
}

// Stop makes Run return after the current task completes; queued tasks are
// discarded. This is how "killing" a page works.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
}

// Len reports the number of queued tasks.
func (l *Loop) Len() int {
	l.mu.Lock()
	n := len(l.queue)
	l.mu.Unlock()
	return n
}

// NextDue reports the earliest due time (in the loop's clock domain) among
// queued tasks. A scheduler uses it to park a program that is only waiting
// on a timer instead of sleeping a worker on it.
func (l *Loop) NextDue() (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return 0, false
	}
	return l.queue[0].due, true
}

// Run drains the queue, advancing the clock across idle gaps, until no
// tasks remain or Stop is called. It returns the number of tasks executed.
func (l *Loop) Run() int {
	l.mu.Lock()
	l.stopped = false
	l.mu.Unlock()
	ran := 0
	for l.step() {
		ran++
		if l.OnTurn != nil {
			l.OnTurn()
		}
	}
	return ran
}

// RunOne executes the next due task, if any, and reports whether it did.
func (l *Loop) RunOne() bool {
	if !l.step() {
		return false
	}
	if l.OnTurn != nil {
		l.OnTurn()
	}
	return true
}

// step pops the earliest-due task (FIFO among ties) under the queue lock
// and runs it outside the lock, so tasks are free to Post and concurrent
// controllers are never blocked behind guest execution.
func (l *Loop) step() bool {
	l.mu.Lock()
	if len(l.queue) == 0 || l.stopped {
		l.mu.Unlock()
		return false
	}
	next := heap.Pop(&l.queue).(*entry)
	if l.timers[next.handle] == next {
		delete(l.timers, next.handle)
	}
	fn, due := next.fn, next.due
	*next = entry{} // pins nothing
	l.free = next
	record := l.TaskDurations != nil
	l.mu.Unlock()
	if now := l.Clock.Now(); due > now {
		l.Clock.Advance(due - now)
	}
	if !record {
		fn()
		return true
	}
	start := l.Clock.Now()
	fn()
	dur := l.Clock.Now() - start
	l.mu.Lock()
	l.TaskDurations = append(l.TaskDurations, dur)
	l.mu.Unlock()
	return true
}

// queue is the loop's binary heap (container/heap).
type queue []*entry

func (q queue) Len() int { return len(q) }

func (q queue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}

func (q queue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}

func (q *queue) Push(x any) {
	e := x.(*entry)
	e.idx = len(*q)
	*q = append(*q, e)
}

func (q *queue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}
