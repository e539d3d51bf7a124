// varargs re-enters with a new object: x !== arguments past a capture, so this
// needs mixed.
// needs: args=mixed
function id(v) { return v; }
function f(a) { var x = arguments; var y = id(1); return (arguments === arguments) + "," + (x === arguments) + "," + y; }
console.log(f(1));
