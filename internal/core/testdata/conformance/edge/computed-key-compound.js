// Computed member compound assignment: index stringified exactly once.
// The .out is the specification's answer (the reference converts its key once); V8 itself prints 16/4.
// known: stopified prints "16/4\n" — o[k] += v is lowered to a read and a write that each convert the key; converting once costs a statement at every a[i] += x, which is ROADMAP item 9 (c)'s to price
function f() {
  var calls = 0;
  var key = { toString: function () { calls++; return "k"; } };
  var o = { k: 10 };
  o[key] += 5;
  o[key]++;
  return o.k + "/" + calls;
}
console.log(f());
