// A call inside catch that reads the exception after it returns: the
// renamed catch parameter travels in every frame of the function. k is read
// only in the catch, so it is live across the call in the try only because
// that call may throw.
function id(v) { return v; }
function check(n) { var m = id(n); if (m > 0) { throw new Error("boom" + m); } return "ok" + m; }
function f(n) {
  var k = n + 100;
  try {
    var v = check(n);
    return v;
  } catch (e) {
    var r = id(k);
    var s = id(r + 1);
    return e.message + ":" + r + ":" + s;
  }
}
var out = [];
for (var i = 0; i < 6; i++) { out.push(f(i)); }
console.log(out.join(" "));
