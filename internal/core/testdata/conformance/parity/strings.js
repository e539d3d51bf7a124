var s = "";
for (var i = 0; i < 120; i++) { s += (i % 10); }
var o = {};
for (var j = 0; j < 50; j++) { o["k" + (j % 7)] = s.length + j; }
var ks = [];
for (var k in o) { ks.push(k + "=" + o[k]); }
console.log(s.length, ks.join(" "));
