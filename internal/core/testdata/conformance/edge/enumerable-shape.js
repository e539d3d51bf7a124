// Enumerability is a shape attribute: two objects built along one path share
// a shape until defineProperty flips a key's enumerability on one of them,
// on an own key and on a prototype the inline caches have already walked
// across. One read site and one write site serve both objects throughout,
// and Object.keys and own-key for-in see each object's own attributes. Then
// the flips are undone, and a key deleted and re-added.
function keysOf(o) { return "[" + Object.keys(o).join(",") + "]"; }
function ownIn(o) {
  var s = "";
  for (var k in o) {
    if (o.hasOwnProperty(k)) { s += k; }
  }
  return s;
}
function read(o) { return o.x * 100 + o.y * 10 + o.m; }
function bump(o) { o.y = o.y + 1; }
function show(tag, a, b) {
  var s = tag + ":";
  for (var i = 0; i < 2; i++) {
    var o = i ? b : a;
    bump(o);
    s += " " + read(o);
  }
  return s + " " + keysOf(a) + keysOf(b) + " " + ownIn(a) + " " + ownIn(b);
}
function f() {
  var proto = { m: 1, n: 2 };
  function make(x, y) { var o = Object.create(proto); o.x = x; o.y = y; return o; }
  var a = make(1, 2), b = make(3, 4);
  var out = [show("built", a, b)];
  Object.defineProperty(a, "x", { enumerable: false });
  out.push(show("a.x hidden", a, b));
  Object.defineProperty(proto, "m", { enumerable: false });
  Object.defineProperty(a, "y", { value: 5 });
  out.push(keysOf(proto) + " " + show("proto.m hidden, a.y redefined", a, b));
  Object.defineProperty(a, "x", { enumerable: true });
  Object.defineProperty(proto, "m", { enumerable: true });
  out.push(keysOf(proto) + " " + show("flipped back", a, b));
  delete a.x;
  out.push(show("a.x deleted", a, b));
  a.x = 9;
  Object.defineProperty(b, "z", { value: 7 });
  b.w = 8;
  out.push(show("a.x re-added, b.z hidden, b.w", a, b));
  Object.defineProperty(Math, "max", { enumerable: true });
  out.push("Math " + keysOf(Math) + " " + Math.max(3, 4));
  Object.defineProperty(Math, "max", { enumerable: false });
  out.push("Math " + keysOf(Math) + " " + Math.max(5, 6));
  return out.join("\n");
}
console.log(f());
