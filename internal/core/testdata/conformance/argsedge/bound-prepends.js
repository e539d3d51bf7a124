// needs: args=varargs
function f() { return arguments.length + ":" + Array.prototype.join.call(arguments, ""); }
var b = f.bind(null, "a", "b");
console.log(b("c"), b());
