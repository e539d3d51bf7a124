// Object.defineProperty's one modelled attribute: a new key is
// non-enumerable unless its descriptor says otherwise, and a redefinition
// keeps every attribute its descriptor omits — enumerability, a data
// property's value, an accessor's other side.
// needs: getters
function keysOf(o) { return "[" + Object.keys(o).join(",") + "]"; }
function f() {
  var out = [];
  var a = {};
  Object.defineProperty(a, "x", {value: 1});
  out.push(keysOf(a), a.x);
  var b = {};
  Object.defineProperty(b, "x", {value: 2, enumerable: true});
  out.push(keysOf(b), b.x);
  var c = {a: 1, b: 2, c: 3};
  Object.defineProperty(c, "a", {get: function () { return 10; }});
  out.push(keysOf(c), c.a);
  Object.defineProperty(c, "b", {value: 20});
  out.push(keysOf(c), c.b);
  Object.defineProperty(c, "c", {enumerable: false});
  out.push(keysOf(c), c.c);
  var d = {};
  Object.defineProperty(d, "g", {get: function () { return 5; }, enumerable: true, configurable: true});
  Object.defineProperty(d, "g", {set: function (v) { this.seen = v; }});
  out.push(keysOf(d));
  d.g = 7;
  out.push(d.g, d.seen, keysOf(d));
  for (var k in c) { out.push("in:" + k); }
  return out.join(" ");
}
console.log(f());
