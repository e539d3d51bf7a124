// "" + bigFloat: large magnitudes, exponent formatting, and the 2^53 boundary
// where integer exactness ends.
function f() {
  var parts = [];
  parts.push("" + 1e21);
  parts.push("" + 1e20);
  parts.push("" + 123456789012345680000);
  parts.push("" + 9007199254740991);
  parts.push("" + (9007199254740991 + 1));
  parts.push("" + (9007199254740991 + 2));
  parts.push("" + 5e-7);
  parts.push("" + 0.000001);
  parts.push("" + -1.5e300);
  return parts.join(" ");
}
console.log(f());
