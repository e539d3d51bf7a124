// split("") segments at character boundaries and join round-trips.
// known: prints "11|héllo wörld|true|12111112111\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var s = "héllo wörld", a = s.split("");
  var lens = "";
  for (var i = 0; i < a.length; i++) { lens += a[i].length; }
  return a.length + "|" + a.join("") + "|" + (a.join("") === s) + "|" + lens;
}
console.log(f());
