var a = [];
a[0] = "start";
a[50] = "mid";
a.big = "non-index";
var s = "";
for (var i = 0; i < 4000; i++) { s = "x"; }
var unicode = "café ☃";
console.log(a.length, a[50], a.big, s.length, unicode);
