// known: prints "11 true é 2\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
var s = "héllo wörld";
var a = s.split("");
console.log(a.length, a.join("") === s, a[1], a[1].length);
