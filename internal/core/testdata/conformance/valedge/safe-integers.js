// Integer-exactness of the safe range through arithmetic: every 2^53-range
// integer stays bit-exact through +, *, and string round-trips.
function f() {
  var max = 9007199254740991;
  var a = max - 1;
  var ok = 0;
  if (a + 1 === max) { ok++; }
  if (max + 1 === max + 2) { ok++; }
  if ((max + "") === "9007199254740991") { ok++; }
  if (parseInt(max + "") === max) { ok++; }
  var big = 1;
  for (var i = 0; i < 53; i++) { big = big * 2; }
  if (big === max + 1) { ok++; }
  return ok;
}
console.log(f());
