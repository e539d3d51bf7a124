// finally inside a for-in (the iterator is unwound by break, continue and
// return alike) and inside a catch (the catch frame likewise).
function f(o, stop) {
  var s = "";
  for (var k in o) {
    for (var k2 in o) {
      try { if (k2 === "b") { continue; } if (k === stop) { return s + "!" + k; } if (k2 === "c") { break; } s += k + k2; }
      finally { s += "."; }
    }
  }
  return s;
}
function g() {
  var s = "";
  for (var i = 0; i < 3; i++) {
    try { throw i; } catch (e) {
      var seen = function () { return e; };
      try { if (e === 1) { continue; } if (e === 2) { break; } s += "c" + e; } finally { s += "f" + seen(); }
    }
  }
  try { throw "x"; } catch (e) { try { return s + e; } finally { s += "lost"; } }
}
console.log(f({a: 1, b: 2, c: 3, d: 4}, "none"), f({a: 1, b: 2, c: 3}, "c"), g());
