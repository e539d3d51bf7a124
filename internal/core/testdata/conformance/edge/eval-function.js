// eval of function-defining code (dynamic fallback path).
// needs: eval
// known: prints "no-eval\n" — eval does not return its fragment's completion value
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
function mk(src) { return eval(src); }
var g = mk("function g(x) { return x * 2; } g");
console.log(typeof g === "function" ? g(21) : "no-eval");
