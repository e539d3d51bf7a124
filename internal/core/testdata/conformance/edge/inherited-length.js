// needs: args=varargs implicits=full getters
// An accessor named length on Object.prototype does not hide the native
// length of an array or of an arguments object: under the getters
// sub-language `a.length` is a $get, whose lookup must find the native length
// before it walks the chain, as a plain read does.
Object.defineProperty(Object.prototype, "length", { get: function () { return 99; } });
function f(a) { var n = a.length; return n; }
console.log(f([1, 2]), f([1, 2, 3]));
function g() { var n = arguments.length; return n; }
console.log(g(1), g(1, 2, 3));
console.log({}.length, "abc".length);
