// An eval fragment runs in the global scope, where the program's top-level
// var x is a global on every path: the fragment reads it from inside a
// function and from the top level, and its own var y is a global too.
// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
var x = 1; function f() { eval("var y = x + 1; console.log('in', y, typeof x)"); } f(); eval("console.log('top', x)")
