var x = 0;
function setX(v) { x = v; return x; }
var got = false && setX(1) || setX(2) && true;
console.log(x, got);
