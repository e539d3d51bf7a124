// concat/indexOf/slice on multi-byte text.
// known: prints "6|3|円|€|2\n" — strings are UTF-8 bytes (WTF-8 for lone surrogates): length and indices count bytes, a read at a character's first byte decodes the whole character; unicode/length is the gap itself
function f() {
  var c = "€" + "円";
  return c.length + "|" + c.indexOf("円") + "|" + c.slice(3) + "|" +
    c.charAt(0) + "|" + c.split("").length;
}
console.log(f());
