// A guest that reshapes builtins — adds, deletes, re-adds and turns into
// accessors and back properties of Math, Array.prototype and
// Object.prototype — at every level of a recursion deep enough to be
// preempted. Builtins start on shapes every realm shares; each change must
// move this realm's object off them and leave a fresh realm untouched.
// needs: getters
var abs = Math.abs, rev = Array.prototype.reverse, has = Object.prototype.hasOwnProperty;
var log = [];
function reshape(n) {
  switch (n % 6) {
    case 0:
      Math.extra = n;
      Array.prototype.total = function () { return this[0] + this[1]; };
      Object.prototype.tag = "t" + n;
      break;
    case 1:
      delete Math.abs;
      delete Array.prototype.reverse;
      delete Object.prototype.hasOwnProperty;
      delete Array.prototype.total;
      break;
    case 2:
      Math.abs = abs;
      Array.prototype.reverse = rev;
      Object.prototype.hasOwnProperty = has;
      break;
    case 3:
      Object.defineProperty(Math, "abs", { get: function () { return function (x) { return abs(x) + 1000; }; }, configurable: true });
      Object.defineProperty(Array.prototype, "total", { get: function () { return function () { return -1; }; }, configurable: true });
      Object.defineProperty(Object.prototype, "tag", { get: function () { return "g" + n; }, configurable: true });
      break;
    case 4:
      Object.defineProperty(Math, "abs", { value: abs, writable: true, configurable: true });
      Object.defineProperty(Array.prototype, "total", { value: function () { return this[0] * this[1]; }, writable: true, configurable: true });
      Object.defineProperty(Object.prototype, "tag", { value: "v" + n, writable: true, configurable: true });
      break;
    default:
      delete Math.extra;
      delete Object.prototype.tag;
  }
}
function probe(n) {
  var o = {};
  return [typeof Math.abs === "function" ? Math.abs(-n) : "none",
    typeof [].reverse,
    typeof [n, 2].total === "function" ? [n, 2].total() : "none",
    o.tag === undefined ? "none" : o.tag,
    Math.extra === undefined ? "none" : Math.extra,
    typeof o.hasOwnProperty].join(" ");
}
function restore() {
  Object.defineProperty(Math, "abs", { value: abs, writable: true, configurable: true });
  Array.prototype.reverse = rev;
  Object.prototype.hasOwnProperty = has;
  delete Math.extra;
  delete Array.prototype.total;
  delete Object.prototype.tag;
}
function descend(n) {
  if (n === 0) { restore(); return 0; }
  reshape(n);
  var down = probe(n);
  var depth = descend(n - 1);
  reshape(n + 3);
  log.push(n + ": " + down + " | " + probe(n));
  return depth + 1;
}
console.log(descend(3));
for (var i = 0; i < log.length; i++) { console.log(log[i]); }
restore();
console.log(Object.keys(Math).join(","), Object.keys(Array.prototype).join(","), Object.keys({}).join(","));
console.log(Math.abs(-3), [1, 2, 3].reverse().join(""), ({ a: 1 }).hasOwnProperty("a"), Math.floor(2.5), Math.max(1, 4));
