// needs: implicits=full getters
var p = {get x() { return 7; }};
var k = {toString: function () { return "x"; }};
console.log(p[k]);
