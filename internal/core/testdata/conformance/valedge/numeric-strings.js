// Numeric strings versus numbers at boundaries: loose equality, ordering
// mixing strings and numbers, hex string coercion.
function f() {
  var r = [];
  r.push("10" == 10, "0x10" == 16, "" == 0, " \t" == 0, "1e3" == 1000);
  r.push("10" < "9", 10 < 9, "10" < 9, [2] == 2);
  r.push(+"-0" === 0, 1 / +"-0");
  return r.join(",");
}
console.log(f());
