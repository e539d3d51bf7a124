// A var that redeclares its catch parameter: the declaration is the
// function's, the initializer assigns the parameter. Each function calls
// something first, so that it is instrumented under every profile.
function id(x) { return x; }
function inside() {
  id(0);
  try { throw 1; } catch (e) { var e = 2; return e; }
}
function after() {
  id(0);
  try { throw 1; } catch (e) { var e = 2; }
  return e;
}
function bare() {
  id(0);
  try { throw 1; } catch (e) { var e; return e; }
}
function list() {
  id(0);
  try { throw 1; } catch (e) { var a = 5, e = a + e, b = e + 1; return [a, e, b].join(","); }
}
function forin() {
  id(0);
  try { throw { p: 1, q: 2 }; } catch (e) { for (var e in e) { id(e); } return e; }
}
console.log(inside());
console.log(after());
console.log(bare());
console.log(list());
console.log(forin(), typeof e);
