// Accessor vs data shape kinds, including conversion in place.
// needs: getters
function f() {
  var o = { get x() { return 1; }, set x(v) { this.y = v; } };
  var before = o.x; o.x = 42; var o2 = { x: 5 }; o2.x = 6;
  return before + "," + o.y + "," + o2.x;
}
console.log(f());
