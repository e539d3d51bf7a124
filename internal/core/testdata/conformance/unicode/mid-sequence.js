// Offsets inside a multi-byte character.
// known: prints "€|1,1|130,172|true\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var s = "€";
  return s[0] + "|" + s[1].length + "," + s[2].length + "|" +
    s.charCodeAt(1) + "," + s.charCodeAt(2) + "|" + (s[0] === s);
}
console.log(f());
