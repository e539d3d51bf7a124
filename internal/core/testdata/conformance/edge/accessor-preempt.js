// A getter or setter that a plain o.g or o.s = v calls, outside the getters
// sub-language, runs under a native frame: a yield due inside it waits for
// the next suspend point outside, so a preempted run loses neither the rest
// of the program nor the accessor's value.
var g = { get v() { return 5; } };
console.log("getter", g.v + g.v);
console.log("after");
var st = { set v(x) { this._v = x; } };
st.v = 40;
console.log("setter", st._v);
function Pt(x) { this.x = x; }
var o = { f: 2, get g() { return this.f + 1; } };
function rec(n) {
  if (n < 1) { return 0; }
  var p = new Pt(n);
  return -p.x + o.f + o.g + rec(n - 1);
}
var t = 0;
for (var i = 0; i < 3; i++) { t = t + rec(10); }
console.log(t);
