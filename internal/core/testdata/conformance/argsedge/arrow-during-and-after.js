// needs: args=varargs
function id(v) { return v; }
function f(a) { var during = (() => id(arguments[0]) + arguments.length)(); return [during, () => id(arguments[1])]; }
var r = f(10, 20);
console.log(r[0], r[1]());
