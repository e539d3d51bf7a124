// Where Object.prototype[i] shows through.
// needs: args=varargs
Object.prototype[3] = "proto3";
function f(a) { return arguments[3] + "," + arguments[0] + "," + arguments[1]; }
var r = f("x") + " " + f("x", "y", "z", "w");
delete Object.prototype[3];
console.log(r);
