// A top-level var of the program is a local of $main when stopified, so an
// eval fragment, which runs in the global scope, does not see it.
// needs: eval
// known: stopified prints "!TypeError: undefined is not a function\n" — late-bind through an undeclared global instead
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
var late;
eval("late = function () { return 'bound late'; }");
console.log(late());
