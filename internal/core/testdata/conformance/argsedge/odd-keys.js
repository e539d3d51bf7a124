// needs: args=varargs
function f(a, b) { return [arguments["1"], arguments[-1], arguments["length"], arguments[1.5], arguments["x"], arguments[true], arguments[-0]].join("|"); }
console.log(f("p", "q"));
