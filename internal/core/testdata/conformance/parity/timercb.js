// Preempts inside a timer callback: the callback's own state must survive. (A
// program observing the interleaving of timer callbacks with main-loop
// progress is deliberately absent: under preemption a yielding main lets due
// timers run earlier than an unbounded run would, which is scheduling made
// visible, not state corruption.)
setTimeout(function () {
  var s = 0;
  for (var i = 0; i < 2000; i++) { s += i * 2; }
  console.log("cb", s);
}, 0);
