var obj = {};
for (var i = 0; i < 5; i++) { obj["k" + i] = i * i; }
var sum = 0;
for (var k in obj) { sum += obj[k]; }
console.log(sum);
