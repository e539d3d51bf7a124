// A catch nested in a catch, both naming their parameter e: the inner
// clause reads its own exception, the outer one its own again after it, also
// when a call inside the inner clause is captured and re-entered.
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
function g() {
  var out = [];
  try { throw 1; } catch (e) {
    try { throw 2; } catch (e) { out.push(e + f(3)); var e = 5; out.push(e); }
    out.push(e + f(2));
  }
  return out.join(",");
}
console.log(g());
