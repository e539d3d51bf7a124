// The runtime's names are not the guest's: the mode, the frame arrays and the
// natives instrumented code calls are intrinsics no guest binding reaches. A
// guest sees none of them (typeof says undefined, as raw and in node), may
// declare or assign every one for its own use, and is still preempted,
// captured and restored in a recursion that runs after it has done so — under
// every strategy, the eager one included, whose live frames a guest reading
// $shadow could once hold. A function's own $suspend, boxed because a nested
// function assigns it, and a catch parameter named $isSig are the guest's
// too: neither the boxing nor the catch's renaming touches the runtime's.
console.log(typeof $rstack, typeof $mode, typeof $suspend, typeof $forInKeys);
var $stack = 5;
var $mode = "x";
$rstack = [1, 2];
$shadow = "s";
$isSig = function () { return true; };
$isCap = function () { return true; };
$suspend = function () { return "guest"; };
$boundFn = 0;
$create = function () { return null; };
$forInKeys = function () { return ["guest"]; };
function depth(n) {
  if (n === 0) {
    try { throw "bottom"; } catch (e) { return 0; }
  }
  return 1 + depth(n - 1);
}
var t = 0;
for (var i = 0; i < 4; i++) { t = t + depth(25); }
console.log(t, $stack, $mode, $rstack.length, $shadow, $boundFn);
function Pt(x) { this.x = x; }
var keys = [];
for (var k in { a: 1, b: 2 }) { keys.push(k); }
console.log(new Pt(2).x, keys.join(","), $suspend(), $forInKeys().join(), $isSig(), $isCap(), $create());
function outer() {
  var $suspend = 1;
  function bump() { $suspend = $suspend + 1; }
  for (var j = 0; j < 3; j++) { bump(); }
  return $suspend;
}
function caught() {
  try { throw 5; } catch ($isSig) { var s = 0; for (var j = 0; j < $isSig; j++) { s = s + j; } return s; }
}
console.log(outer(), caught());
