// What an offset inside a multi-byte character reads.
// known: prints "true 1 130 172\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
var s = "€";
console.log(s[0] === s, s[1].length, s.charCodeAt(1), s.charCodeAt(2));
