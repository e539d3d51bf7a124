// A call returned from inside a try block with a catch is not a tail call:
// the handler is still live. anf keeps it in tail position all the same, so
// under the strategies that unwind by something a handler can see, a capture
// taken below it is lost (exceptional: the program ends without a word) or
// resumes with no value (eager). Naming the call in anf.returnStmt when it
// is inside a try fixes both and moves the compiled text of every program
// that returns a call from a try.
// known: exceptional q1 prints "" — the capture unwinds through the tail call's missing frame
// known: eager q1 prints "undefined end\n" — the tail call's result is dropped on re-entry
// known: exceptional declared q25 prints "" — a pause at every 25th statement lands below the call too
// known: eager declared q25 prints "undefined end\n" — likewise
function g() { return 7; }
function h() { try { return g(); } catch (e) { return "caught"; } }
console.log(h(), "end");
