// needs: implicits=full getters
var n = 0, o = {x: 1};
var k = {toString: function () { n++; return "x"; }};
var r = o[k];
o[k] = 2;
console.log(r, n, o.x);
