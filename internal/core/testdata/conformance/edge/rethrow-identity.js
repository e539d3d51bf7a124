// throw through nested handlers, rethrow, and error identity.
function f() {
  var s = "";
  try {
    try { throw new Error("boom"); } catch (e) { s += "c1:" + e.message + ";"; throw e; }
  } catch (e2) { s += "c2:" + e2.message; }
  return s;
}
console.log(f());
