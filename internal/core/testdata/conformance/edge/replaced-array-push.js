// A guest that replaces Array.prototype.push with a wrapper that counts and
// delegates: the runtime's continuation frames must not go through it.
// known: tree preempted prints "" — the tree-walker runs the plain frame protocol, which reaches the runtime's $stack.push through the guest's replacement; the bytecode engine pushes frames itself (DESIGN_interp.md "Frames"), and ROADMAP item 3 deletes the walker
// known: xhop prints "" — an xhop cell resumes on the tree-walker at every other pause, where the line above holds
var push = Array.prototype.push, pushes = 0;
Array.prototype.push = function (x) { pushes = pushes + 1; return push.call(this, x); };
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
var s = 0, a = [];
for (var i = 0; i < 6; i++) { s = s + f(5) * i; }
a.push(s);
console.log(a[0], pushes);
