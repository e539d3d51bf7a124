// Length vs decoded single-character reads across 1/2/3/4-byte characters;
// charCodeAt.
// known: prints "10|añ€🙂|€|241,8364,128578\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var s = "añ€🙂";
  return s.length + "|" + s[0] + s[1] + s[3] + s[6] + "|" + s.charAt(3) +
    "|" + s.charCodeAt(1) + "," + s.charCodeAt(3) + "," + s.charCodeAt(6);
}
console.log(f());
