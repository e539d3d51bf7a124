var before = [];
for (var i = 0; i < 3; i++) { before.push(Math.random()); }
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i) % 31; }
var after = [];
for (var i = 0; i < 3; i++) { after.push(Math.random()); }
console.log(before.length, after.length, before[0] < 1, after[0] < 1, after.join(",").length > 5);
