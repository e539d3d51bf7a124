var fns = [];
function mk(i) { var n = i * 3; return function () { return n + i; }; }
for (var i = 0; i < 200; i++) { fns.push(mk(i)); }
var total = 0;
for (var k = 0; k < fns.length; k++) { total += fns[k](); }
console.log(total);
