// throw leaving through one and two finally blocks, the error's identity kept;
// a catch beside the finally sees it first.
function f() {
  var s = "", err = new Error("boom");
  try { try { throw err; } finally { s += "1"; } } catch (e) { s += (e === err) + ";"; }
  try {
    try { try { throw err; } finally { s += "2"; } s += "no"; } finally { s += "3"; }
  } catch (e) { s += (e === err) + ";"; }
  try { throw err; } catch (e) { s += "c"; } finally { s += "4"; }
  try { try { throw err; } catch (e) { s += "c"; throw e; } finally { s += "5"; } } catch (e) { s += (e === err); }
  return s;
}
console.log(f());
