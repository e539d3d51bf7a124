// for-in over inherited enumerable keys and over a string's indices.
// known: prints "a own, 01.\n" — for-in walks own keys only (forInKeys on both engines, $forInKeys in the lowering): inherited enumerable keys are skipped
function C() { this.a = 1; }
C.prototype.b = 2;
var s = "";
for (var k in new C()) { s += k; }
var o = Object.create({ inh: 1 });
o.own = 2;
var t = "";
for (var k2 in o) { t += k2 + ","; }
var u = "";
for (var i in "xy") { u += i; }
console.log(s, t, u + ".");
