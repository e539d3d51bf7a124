// Index, charAt and charCodeAt over 1/2/3/4-byte characters.
// known: prints "10 a ñ € 🙂\na ñ € 🙂\n97 241 8364 128578\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
var s = "añ€🙂";
console.log(s.length, s[0], s[1], s[3], s[6]);
console.log(s.charAt(0), s.charAt(1), s.charAt(3), s.charAt(6));
console.log(s.charCodeAt(0), s.charCodeAt(1), s.charCodeAt(3), s.charCodeAt(6));
