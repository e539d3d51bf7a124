// for-in over an object mutated mid-loop.
// known: prints "abc\n" — for-in walks a snapshot of the keys taken at entry: a key deleted before its turn is still visited
function f() {
  var o = { a: 1, b: 2, c: 3 };
  var s = "";
  for (var k in o) { s += k; if (k === "a") { delete o.b; o.d = 4; } }
  return s;
}
console.log(f());
