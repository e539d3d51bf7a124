// State that used to pin a guest resident and now serializes as plain data;
// held live across every park point.
var d0 = new Date();
var t0 = d0.getTime();
var fixed = new Date(86400000);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i) % 101; }
var stable = d0.getTime() === t0 && d0.valueOf() === t0;
console.log(typeof t0, stable, fixed.getTime(), typeof Date(), n);
