// needs: args=varargs
function id(v) { return v; }
function f(a, b) {
  var r = "";
  try { throw arguments[1]; } catch (e) { r += e + id(arguments[0]) + arguments.length; try { throw 1; } catch (e2) { r += id(arguments[1]); } }
  finally { r += id(arguments.length) + arguments[0]; }
  return r;
}
console.log(f("x", "y"));
