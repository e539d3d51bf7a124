// Deep recursion: a RangeError the guest can catch.
// known: preempted prints "!does not finish\n" — frames captured at a pause live on the heap, so a preempted guest's recursion is not bounded by the engine's stack and never meets its RangeError
function f(n) { return f(n + 1); }
try { f(0); } catch (e) { console.log(e.name); }
