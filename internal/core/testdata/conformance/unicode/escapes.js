// \u escapes agree with fromCharCode, including a lone surrogate.
// known: prints "8|233,8364,55348|true\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var s = "é€\ud834";
  return s.length + "|" + s.charCodeAt(0) + "," + s.charCodeAt(2) + "," +
    s.charCodeAt(5) + "|" + (s === String.fromCharCode(0xE9, 0x20AC, 0xD834));
}
console.log(f());
