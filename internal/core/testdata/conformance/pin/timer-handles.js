// State that used to pin a guest resident and now serializes as plain data;
// held live across every park point.
var log = ["start"];
var t1 = setTimeout(function (a, b) {
    log.push("t1" + a + b);
    console.log(log.join(","));
}, 30, "x", "y");
var t2 = setTimeout(function () { log.push("t2-should-not-fire"); }, 20);
var t3 = setTimeout(function () { log.push("t3"); }, 10);
clearTimeout(t2);
clearTimeout(9999);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i) % 97; }
log.push("main" + n + ":" + t1 + ":" + t2 + ":" + t3);
