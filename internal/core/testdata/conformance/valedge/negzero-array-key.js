// -0 as an array key must read/write the same slot as 0; its sign stays
// observable through division and Infinity formatting.
function f() {
  var a = [10, 20, 30];
  var z = -0;
  a[z] = 99;
  return a[0] + "," + a[-0] + "," + (1 / z) + "," + String(z) + "," + (z === 0);
}
console.log(f());
