// for-in over a primitive string visits its indexes, as over a String object.
var keys = [];
for (var k in "ab") { keys.push(k); }
console.log(keys.join(","), keys.length, typeof keys[0]);
var s = "héllo", n = 0, last = "";
for (var j in s) { n = n + 1; last = j; }
console.log(n === s.length, last === String(s.length - 1));
var e = [];
for (var x in "") { e.push(x); }
for (var y in 42) { e.push(y); }
for (var z in true) { e.push(z); }
console.log(e.length);
function count(str) { var c = 0; for (var i in str) { c = c + str[i].length; } return c; }
console.log(count("stopify"));
