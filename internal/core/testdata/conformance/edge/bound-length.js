// Bound .length: target arity minus bound args, floored at zero, through re-
// binding chains.
function f4(a, b, c, d) { return a; }
var b0 = f4.bind(null);
var b2 = f4.bind(null, 1, 2);
var b9 = b2.bind(null, 3, 4, 5, 6);
console.log(f4.length, b0.length, b2.length, b9.length);
