// fromCharCode(c).charCodeAt(0) === c for every band of the BMP, the
// surrogate range included.
// known: prints "0 3\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
var codes = [65, 0xE9, 0x20AC, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xFFFF];
var bad = 0;
for (var i = 0; i < codes.length; i++) {
  if (String.fromCharCode(codes[i]).charCodeAt(0) !== codes[i]) { bad++; }
}
console.log(bad, String.fromCharCode(0xD800).length);
