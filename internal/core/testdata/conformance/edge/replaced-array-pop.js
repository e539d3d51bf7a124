// A guest that replaces Array.prototype.pop with a wrapper that counts and
// delegates: a restored frame must not be taken off the stack through it.
// known: tree preempted prints "!RangeError: Maximum call stack size exceeded\n" — the tree-walker runs the plain frame protocol, which reaches the runtime's $rstack.pop through the guest's replacement; the bytecode engine pops frames itself (DESIGN_interp.md "Frames"), and ROADMAP item 3 deletes the walker
// known: xhop prints "!RangeError: Maximum call stack size exceeded\n" — an xhop cell resumes on the tree-walker at every other pause, where the line above holds
var pop = Array.prototype.pop, pops = 0;
Array.prototype.pop = function () { pops = pops + 1; return pop.call(this); };
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
var s = 0, a = [1, 2];
for (var i = 0; i < 6; i++) { s = s + f(5) * i; }
console.log(s, a.pop(), pops);
