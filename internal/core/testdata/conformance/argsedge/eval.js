// needs: args=varargs eval
// known: raw prints "ReferenceError ReferenceError\n" — eval is indirect: a fragment runs in the global scope, where there is no arguments
// known: stopified prints "undefined undefined\n" — eval is indirect: a fragment runs in the global scope as a function of its own, whose arguments is its own and empty
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
function f(a) {
  var r; try { r = eval("arguments[0]"); } catch (e) { r = e.name; }
  return [r, () => { try { return eval("arguments[0]"); } catch (e) { return e.name; } }];
}
var r = f(5);
console.log(r[0], r[1]());
