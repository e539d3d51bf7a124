// A named function expression's own name is read-only inside it: the
// assignment is ignored (sloppy mode), and the name still reads as the function.
// known: prints "number\n" — the self binding is an ordinary slot; making it read-only costs a check on every slot store
var fe = function me() { me = 5; return typeof me; };
console.log(fe());
