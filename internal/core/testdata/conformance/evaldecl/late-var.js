// A top-level var of the program is a global, stopified as raw, so an eval
// fragment, which runs in the global scope, assigns it.
// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
var late;
eval("late = function () { return 'bound late'; }");
console.log(late());
