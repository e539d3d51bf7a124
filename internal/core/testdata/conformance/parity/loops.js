var s = 0;
for (var i = 0; i < 3000; i++) { s = (s * 31 + i) % 1000003; }
var t = 0, j = 0;
while (j < 500) { t += j * j; j++; }
console.log(s, t);
