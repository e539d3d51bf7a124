// A guest's own $-names next to the names the compiler makes up: an A-normal
// form temporary ($t<n>, which under the default options is $t6 in tt), the
// fixed locals $lbl, $k, $self and $ct, a renamed catch parameter ($exn<n>),
// a named anonymous function ($f<n>), an arrow's $this and, under args=full,
// the $outerargs alias. Each binding below must stay the guest's.
function g(n) { return n + 1; }
function tt() { var $t6 = "T"; var x = g(g(1)); return $t6 + x; }
console.log(tt());

function f(n) { var $lbl = "L"; var $k = "K"; var a = g(n); var b = g(a); return $lbl + $k + a + b; }
console.log(f(1));

function dash() { return "-"; }
function caught() {
  var r = "";
  try { throw "a"; } catch (e) { r += e; var $exn1 = "guest"; r += dash(); r += e; }
  return r + $exn1;
}
console.log(caught());

function self() { var $self = "S"; var x = g(1); var y = g(x); return $self + x + y; }
console.log(self());

function $f1() { return "guest"; }
var anon = function () { return $f1(); };
console.log(anon());

function outer(a) { var $outerargs = "O"; var inner = function () { return a + $outerargs; }; return inner(); }
console.log(outer("A"));

function handler() { var $ct = "C"; try { throw "x"; } catch (e) { return $ct + e + g(1); } }
console.log(handler());

function method() { var $this = "G"; var arrow = () => this.v; return arrow() + $this; }
console.log(method.call({ v: 1 }));
