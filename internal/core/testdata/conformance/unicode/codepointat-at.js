// codePointAt at and past the end; at() with negative and out-of-range offsets.
// known: prints "97 128578 undefined\nñ 🙂 undefined undefined\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
var s = "añ€🙂";
console.log(s.codePointAt(0), s.codePointAt(6), s.codePointAt(99));
console.log(s.at(1), s.at(-4), s.at(-99), s.at(99));
