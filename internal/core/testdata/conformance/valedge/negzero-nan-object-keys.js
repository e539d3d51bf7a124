// -0 and NaN as object keys: both coerce through String(), so -0 lands on "0"
// and NaN on "NaN".
function f() {
  var o = {};
  o[-0] = "neg";
  o[0] = "pos";
  o[NaN] = "nan";
  o[0 / 0] = "nan2";
  var ks = [];
  for (var k in o) { ks.push(k); }
  return ks.join("|") + ";" + o["0"] + ";" + o["NaN"];
}
console.log(f());
