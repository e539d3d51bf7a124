// needs: args=varargs
function f(a, b) { return arguments; }
var r = f(1, 2, 3);
console.log(r.length, r[0], r[2], typeof r, r === f(1, 2, 3));
