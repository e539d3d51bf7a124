// A declared function keeps its identity across a preemption. A function
// entered to resume its frame does not declare again what the frame
// restores: top (declared in the program's body) and inner (declared in a
// recursive function) are read after a call, so their frames carry them,
// and each reference taken before the recursion is === after it. spare is
// read nowhere in its function, so no frame carries it and a resumed walk
// declares it again, beside the two it restores.
function top() { return "top"; }
function walk(n) {
  function inner() { return n; }
  function spare() { return -n; }
  var mine = inner;
  var deeper = n > 0 ? walk(n - 1) : true;
  return deeper === true && mine === inner && inner() === n;
}
var topRef = top;
var ok = walk(40);
console.log(ok, topRef === top, top(), typeof walk);
