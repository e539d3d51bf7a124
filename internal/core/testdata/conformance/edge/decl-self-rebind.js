// A function declaration's name is a binding of the scope it is declared in,
// not of its own body: reassigning it from outside redirects the body's
// recursive calls (so a memoized fib makes one call per n), and assigning
// it from inside replaces the declaration for everyone.
var calls = 0;
function fib(n) { calls++; return n < 2 ? n : fib(n - 1) + fib(n - 2); }
function memoize(f) {
  var memo = {};
  return function (n) {
    if (!(n in memo)) { memo[n] = f(n); }
    return memo[n];
  };
}
fib = memoize(fib);
console.log(fib(20), calls);
function f() { f = 5; return typeof f; }
console.log(f(), typeof f);
