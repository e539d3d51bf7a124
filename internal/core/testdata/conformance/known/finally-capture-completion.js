// A capture taken inside a finally block keeps a pending return (the
// paper's §3.1.1) and loses a pending throw, break or continue: re-entered,
// the block falls off its end as if nothing were pending.
// known: preempted prints "4 4 nothing\n" — the instrumentation saves $finret and no other completion record; ROADMAP item 5, Completions
function f(x) { return x + 1; }
var turns = 0, n = 0;
for (;;) {
  turns++;
  if (turns > 3) { break; }
  try { break; } finally { n = f(n); }
}
var caught = "nothing";
try { try { throw "thrown"; } finally { n = f(n); } } catch (e) { caught = e; }
console.log(turns, n, caught);
