// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
eval("var x = 1; function f(){}"); console.log(typeof x, typeof f)
