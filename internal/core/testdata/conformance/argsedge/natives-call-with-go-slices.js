// Setter, getter, timer: the callers whose args is a Go-side slice.
// needs: args=varargs getters
function id(v) { return v; }
var o = { get g() { return id(arguments.length); }, set s(v) { this.n = id(arguments.length) + ":" + arguments[0]; } };
o.s = "val";
var line = o.g + " " + o.n;
setTimeout(function (x, y) { console.log(line, "timer", id(arguments.length), arguments[1], x); }, 0, "p", "q");
