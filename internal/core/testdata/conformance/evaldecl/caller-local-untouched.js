// needs: eval
// known: prints "1 5\n" — eval is indirect: a fragment runs in the global scope, so its var is a global and k's z is untouched
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
function k(){ var z = 1; eval("var z = 5"); return z } console.log(k(), z)
