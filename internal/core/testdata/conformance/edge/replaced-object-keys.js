// A guest that replaces Object.keys: a for-in must still visit the object's
// own keys, as it does raw, on the desugared loop stopified code runs too.
var keys = Object.keys, calls = 0;
Object.keys = function (o) { calls = calls + 1; return ["hijacked"]; };
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
var seen = [], s = 0;
for (var k in { a: 1, b: 2, c: 3 }) { seen.push(k); s = s + f(5); }
console.log(seen.join(","), s, calls, keys({ x: 1 }).length);
