// needs: eval
// known: prints "number number\n" — eval is indirect: a fragment runs in the global scope, so its var is a global, not g's
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
function g(){ eval("var y = 2"); return typeof y } console.log(g(), typeof y)
