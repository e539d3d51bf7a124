// The prelude's functions, and the natives its $get and $set are written in,
// are the runtime's too: a guest sees none of them (typeof says undefined, as
// raw and in node), may assign every one as an implicit global and declare
// every one in a function of its own, and its +, <, -x, o.f, getters and
// `new` still mean what they mean, in a recursion preempted after it has done
// so. A guest's `var $construct` no longer stands in for the constructor
// prelude (the default constructor strategy, in every profile), and neither
// an eval fragment nor the program binds a name of its own: the top level's
// body is a function no name binds. The getters column is declared because
// the recursion reads a getter, which only that sub-language may preempt.
// needs: getters eval
console.log(typeof $construct, typeof $toPrim, typeof $eq, typeof $add, typeof $sub, typeof $mul, typeof $div);
console.log(typeof $mod, typeof $lt, typeof $le, typeof $gt, typeof $ge, typeof $ne, typeof $neg);
console.log(typeof $tonum, typeof $get, typeof $set, typeof $lookupGetter, typeof $lookupSetter, typeof $rawGet, typeof $rawSet);
$construct = 1; $toPrim = function (v) { return 7; }; $eq = function () { return true; };
$add = function () { return "add"; }; $sub = 0; $mul = 0; $div = 0; $mod = 0;
$lt = function () { return false; }; $le = 0; $gt = 0; $ge = 0; $ne = 0;
$neg = function () { return 99; }; $tonum = 0; $get = function () { return "get"; }; $set = 0;
$lookupGetter = function () { return undefined; }; $lookupSetter = 0;
$rawGet = function () { return 99; }; $rawSet = 0;
function Pt(x) { this.x = x; }
var o = { f: 2, get g() { return this.f + 1; } };
function rec(n) {
  if (n < 1) { return 0; }
  var p = new Pt(n);
  return -p.x + o.f + o.g + rec(n - 1);
}
var t = 0;
for (var i = 0; i < 2; i++) { t = t + rec(4); }
console.log(t, $construct, $toPrim(1), $eq(), $add(), $lt(), $neg(1), $get(), $rawGet(), $lookupGetter());
function declared() {
  var $construct = 5;
  function P(a) { this.a = a; }
  var p = new P(3);
  console.log(p.a, $construct);
  var $toPrim = 1, $eq = 2, $sub = 3, $mul = 4, $div = 5, $mod = 6, $lt = 7, $le = 8, $gt = 9, $ge = 10;
  var $ne = 11, $tonum = 12, $set = 13, $lookupSetter = 14, $rawSet = 15;
  function $add(a, b) { return 42; }
  function $neg(a) { return "neg"; }
  function $get(o, k) { return "mine"; }
  function $lookupGetter() { return function () { return "guest getter"; }; }
  function $rawGet() { return 99; }
  var s = 0;
  for (var j = 0; j < 2; j++) { s = s + rec(4); }
  var x = 1, q = { f: 4, get g() { return x - 5; } };
  console.log(s, x + 2, $add(x, 2), -x, $neg(x), x < 2, x * 3 > $mul, q.f, q.g, $get(q, "f"), $lookupGetter()());
  return [$toPrim, $eq, $sub, $div, $mod, $lt, $le, $gt, $ge, $ne, $tonum, $set, $lookupSetter, $rawSet, $rawGet()].join();
}
console.log(declared());
$eval = 5; eval("var q = 1"); console.log(typeof $eval, $eval === 5, q);
console.log(typeof $main);
