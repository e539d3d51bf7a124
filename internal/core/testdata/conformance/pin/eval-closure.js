// A closure made by eval'd code has no place in the blob's code table: the
// guest stays resident.
// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
eval("make = function (n) { return function (m) { return n + m; }; };");
var f = make(7);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + f(i)) % 1000003; }
console.log(n);
