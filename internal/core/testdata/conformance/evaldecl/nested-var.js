// A fragment's var declared in a for's init, not a direct statement of the
// fragment, is a global as every var the fragment declares is.
// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
eval("for (var ei = 0; ei < 3; ei++) {}"); console.log(typeof ei)
