// The vector is a copy of arr, not arr.
// needs: args=varargs
var arr = [1, 2];
function g(a) { arr[0] = 99; return a + "," + arguments[0] + "," + arguments.length; }
console.log(g.apply(null, arr), arr[0]);
