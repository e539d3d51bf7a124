// Object.create takes an object or null as the prototype; anything else throws.
function attempt(p) {
  try { Object.create(p); return "no throw"; } catch (e) { return e instanceof TypeError ? "TypeError" : "other"; }
}
console.log(attempt(5), attempt("s"), attempt(true), attempt(undefined));
try { Object.create(); console.log("no throw"); } catch (e) { console.log(e instanceof TypeError); }
var o = Object.create(null);
console.log(Object.getPrototypeOf(o) === null, attempt(null), attempt({}), attempt(function () {}));
var b = Object.create({ v: 7 });
console.log(b.v);
