// An abrupt finally wins: over a pending return, over a pending throw (by
// return, by break, by continue, by another throw), and a finally inside a
// finally.
function overRet() { try { return "a"; } finally { throw new Error("fin"); } }
function overThrow() { try { throw new Error("lost"); } finally { return "kept"; } }
function loops() {
  var s = "";
  for (var i = 0; i < 3; i++) { try { throw new Error("l" + i); } finally { s += i; if (i < 2) { continue; } break; } }
  for (;;) { try { return "not this"; } finally { break; } }
  try { try { throw new Error("one"); } finally { throw new Error("two"); } } catch (e) { s += e.message; }
  try { s += "a"; } finally { try { s += "b"; } finally { s += "c"; } s += "d"; }
  return s;
}
var r; try { r = overRet(); } catch (e) { r = e.message; }
console.log(r, overThrow(), loops());
