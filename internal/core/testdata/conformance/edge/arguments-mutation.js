// arguments materialization and mutation.
// needs: args=mixed
// known: !args=full prints "1,3,x,2\n" — formals are not aliased with arguments: only args=full, which turns every formal into arguments[i], gives JavaScript's answer, and raw is not JavaScript here
function f(a, b) { arguments[0] = 9; arguments[5] = "x";
return a + "," + arguments.length + "," + arguments[5] + "," + arguments[1]; }
console.log(f(1, 2, 3));
