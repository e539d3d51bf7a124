// String indexing and char coercion, plus number formatting of char codes
// flowing back into arithmetic.
function f() {
  var s = "The quick brown fox";
  var acc = 0;
  var out = "";
  for (var i = 0; i < s.length; i++) {
    acc = (acc * 31 + s.charCodeAt(i)) % 1000003;
    out = s[i] + out;
  }
  return acc + "|" + out + "|" + s[100] + "|" + s["3"];
}
console.log(f());
