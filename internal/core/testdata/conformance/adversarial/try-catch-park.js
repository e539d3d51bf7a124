function risky(i) {
    if (i % 1000 === 999) { throw {code: i}; }
    return i * 2;
}
var caught = 0, sum = 0;
for (var i = 0; i < 3000; i++) {
    try { sum = (sum + risky(i)) % 1000003; }
    catch (e) { caught += 1; }
}
console.log(caught, sum);
