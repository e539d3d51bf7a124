// A guest that replaces Function.prototype.apply with a wrapper that counts
// and delegates: re-entering a captured frame must not go through it.
// known: tree preempted prints "" — the tree-walker runs the plain frame protocol, which reaches the runtime's frame re-entry, $k[1].apply through the guest's replacement, whose own prologue pops the callee's frame: restore goes astray and the run ends having printed nothing; the bytecode engine re-enters them itself (DESIGN_interp.md "Frames"), and ROADMAP item 3 deletes the walker
// known: xhop prints "" — an xhop cell resumes on the tree-walker at every other pause, where the line above holds
var fp = Object.getPrototypeOf(function () {}), apply = fp.apply, applies = 0;
fp.apply = function (self, args) { applies = applies + 1; return apply.call(this, self, args); };
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
var s = 0;
for (var i = 0; i < 6; i++) { s = s + f(5) * i; }
console.log(s, Math.max.apply(null, [s, 1]), applies);
