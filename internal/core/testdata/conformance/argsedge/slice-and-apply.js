// needs: args=varargs
function rest() { return Array.prototype.slice.call(arguments, 1); }
function sum() { var s = 0; for (var i = 0; i < arguments.length; i++) { s += arguments[i]; } return s; }
function fwd() { return sum.apply(this, arguments); }
console.log(rest(1, 2, 3).join(","), fwd(1, 2, 3, 4));
