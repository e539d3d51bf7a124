// Closures over loop variables and catch parameters.
function f() {
  var fns = [];
  for (var i = 0; i < 3; i++) { fns.push(function () { return i; }) }
  var c;
  try { throw 7; } catch (e) { c = function () { return e; }; }
  return fns[0]() + "," + fns[2]() + "," + c();
}
console.log(f());
