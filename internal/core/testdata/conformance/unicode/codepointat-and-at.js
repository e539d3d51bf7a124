// codePointAt and at() over the same string, negative offsets from the end.
// known: prints "97,241,128578|a🙂|undefined,undefined\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var s = "añ€🙂";
  return s.codePointAt(0) + "," + s.codePointAt(1) + "," + s.codePointAt(6) +
    "|" + s.at(0) + s.at(-4) + "|" + s.at(99) + "," + s.codePointAt(99);
}
console.log(f());
