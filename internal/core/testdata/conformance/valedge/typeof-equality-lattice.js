// typeof/=== lattice over every primitive class, as runtime strings.
function f() {
  var vals = [undefined, null, true, 0, -0, NaN, 1.5, "", "0", "x"];
  var s = "";
  for (var i = 0; i < vals.length; i++) {
    s += typeof vals[i] + ":";
    for (var j = 0; j < vals.length; j++) {
      s += (vals[i] === vals[j]) ? "1" : "0";
    }
    s += ";";
  }
  return s;
}
console.log(f());
