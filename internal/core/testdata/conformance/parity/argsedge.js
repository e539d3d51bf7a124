// A capture at every yield point of functions that read, write, keep and
// forward their arguments. Past a capture only what every arity sub-language
// that carries arguments promises is observed: contents and length, not
// identity and no property but the elements.
// needs: args=varargs
function id(v) { return v; }
function sum() { var s = 0; for (var i = 0; i < arguments.length; i++) { s += id(arguments[i]); } return s; }
function fwd(a, b) { arguments[1] = id(b) * 10; return sum.apply(null, arguments) + ":" + id(arguments.length) + ":" + arguments[5]; }
function kept(a) { var mine = arguments; id(0); return function () { return mine[0] + mine.length; }; }
function caught(a) { try { throw id(arguments[1]); } catch (e) { return e + id(arguments[0]) + arguments.length; } }
var k = kept(7, 8);
var out = [];
for (var i = 0; i < 6; i++) { out.push(fwd(i, i + 1, 100), caught("x", "y")); }
console.log(out.join(" "), k(), k() === k());
