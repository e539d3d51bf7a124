// needs: args=varargs
// known: args=full prints "1,5 s number 7,1,7\n" — q reads its formal a through the reassigned arguments binding
// known: !args=full prints "1,5 s object 7,1,8\n" — a formal named arguments loses to the arguments object
function id(v) { return v; }
function v(a) { var arguments; return id(arguments.length) + "," + arguments[0]; }
function w(a) { var arguments = "s"; return id(arguments); }
function p(arguments) { return id(typeof arguments); }
function q(a) { arguments = [7]; return id(arguments[0]) + "," + arguments.length + "," + a; }
console.log(v(5), w(5), p(6), q(8));
