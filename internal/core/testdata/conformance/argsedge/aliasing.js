// Sloppy-mode JavaScript aliases a formal with its arguments element, both
// ways. Of the arity sub-languages only full, which turns formals into
// arguments[i], does; the raw engines do not.
// needs: args=varargs
// known: !args=full prints "1 1\n" — formals are not aliased with arguments: only args=full, which turns every formal into arguments[i], gives JavaScript's answer, and raw is not JavaScript here
function f(a, b) { arguments[0] = 5; return a; }
function g(a) { a = 7; return arguments[0]; }
console.log(f(1, 2), g(1));
