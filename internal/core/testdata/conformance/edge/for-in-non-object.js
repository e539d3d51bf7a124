// for-in over null, undefined, a number and a boolean runs zero iterations.
function count(x) { var n = 0; for (var k in x) { n++; } return n; }
console.log(count(null), count(undefined), count(5), count(true));
