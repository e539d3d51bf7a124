// needs: args=varargs
function f(a, b, c) { return arguments.length; }
console.log(f(), f(1), f(1, 2, 3, 4, 5));
