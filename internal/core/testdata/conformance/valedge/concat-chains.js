// String concat chains: growth across many appends, identity of the result
// under ===, and .length bookkeeping along the way.
function f() {
  var s = "";
  for (var i = 0; i < 50; i++) {
    s = s + i + "-";
  }
  var t = "";
  for (var j = 0; j < 50; j++) {
    t += j;
    t += "-";
  }
  return (s === t) + "/" + s.length + "/" + s.charAt(17) + "/" + s.slice(0, 8);
}
console.log(f());
