// varargs re-enters with the elements alone, so a length assigned before a
// capture is gone after it: this needs mixed.
// needs: args=mixed
// known: prints "w,3,1,r,undefined,012length\n" — delete leaves an arguments element in place and an assigned length enumerates
function id(v) { return v; }
function f(a, b, c) {
  arguments[1] = "w"; var r = id(arguments[1]) + "," + arguments.length;
  arguments.length = 1; r += "," + id(arguments.length) + "," + arguments[2];
  delete arguments[0]; r += "," + id(arguments[0]) + "," + Object.keys(arguments).join("");
  return r;
}
console.log(f("p", "q", "r"));
