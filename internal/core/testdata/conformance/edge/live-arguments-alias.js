// Under mixed arity arguments travels in locals beside the formals, and the
// two alias: a frame keeps every formal and arguments whatever liveness
// finds. The formal is read after the call and before arguments[0] is
// written, so the answer does not depend on aliasing.
// needs: args=mixed
function id(v) { return v; }
function f(a, b) {
  var r = id(a);
  var before = a;
  arguments[0] = r * 10;
  return before + ":" + arguments[0] + ":" + arguments[1] + ":" + arguments.length;
}
var out = [];
for (var i = 0; i < 5; i++) { out.push(f(i, "b" + i, "extra")); }
console.log(out.join(" "));
