// A local that only a closure reads: n is bound before the call and the
// closure is made after it, in the activation a restore rebuilt, so n must
// travel in the frame although the function never reads it by name.
function id(v) { return v; }
function mk(n, m) {
  var t = id(m);
  var k = function () { return n * 3 + t; };
  return k;
}
var s = 0;
for (var i = 0; i < 20; i++) { s += mk(i, i + 1)(); }
console.log(s);
