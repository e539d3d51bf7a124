// Switch fallthrough with default in the middle.
function f(x) {
  var s = "";
  switch (x) { case 1: s += "1"; default: s += "d"; case 2: s += "2"; }
  return s;
}
console.log(f(1), f(2), f(3));
