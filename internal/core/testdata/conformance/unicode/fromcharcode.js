// fromCharCode(c).charCodeAt(0) === c for BMP code units, surrogates included.
// known: prints "10|23\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var codes = [65, 0xE9, 0x20AC, 0xD800, 0xDFFF, 0xFFFF, 0x7F, 0x80, 0x7FF, 0x800];
  var ok = 0, s = "";
  for (var i = 0; i < codes.length; i++) {
    var c = String.fromCharCode(codes[i]);
    if (c.charCodeAt(0) === codes[i]) { ok++; }
    s += c;
  }
  return ok + "|" + s.length;
}
console.log(f());
