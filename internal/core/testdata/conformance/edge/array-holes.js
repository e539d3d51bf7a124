// Elided array holes, length, and join.
function f() { var a = [,1,,3,,]; return a.length + ":" + a.join("-"); }
console.log(f());
