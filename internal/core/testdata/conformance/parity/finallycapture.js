// Quantum 1 pauses at every yield point there is, so captures land inside the
// try block and the catch body while a return, a throw, a break or a continue
// is about to leave through the finally, and inside the finally block itself.
// There the instrumentation re-raises a pending return on re-entry and nothing
// else, so the block calls out, and so can be captured, only when what is
// pending is a return or nothing.
function tick(x) { return x + 1; }
function leave(how, i) {
  var trail = "";
  for (var k = 0; k < 2; k++) {
    try {
      trail += tick(k);
      if (how === 0) { return trail + "r"; }
      if (how === 1) { throw new Error("t" + i); }
      if (how === 2) { break; }
      if (how === 3) { continue; }
      trail += "n";
    } catch (e) {
      trail += tick(k) + e.message;
      if (i === 1) { throw e; }
    } finally {
      if (how === 0 || how >= 4) { trail += "f" + tick(tick(k)); } else { trail += "f"; }
      if (how === 4) { return trail + "o"; }
    }
    trail += ";";
  }
  return trail;
}
var out = [];
for (var i = 0; i < 12; i++) {
  try { out.push(leave(i % 6, i)); } catch (e) { out.push("E" + e.message); }
}
console.log(out.join(" "));
