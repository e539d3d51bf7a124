// Escaped closures over shared frames.
function counter(start) {
    var n = start;
    return {
        inc: function () { n++; return n; },
        dec: function () { n--; return n; },
        read: function () { return n; }
    };
}
var c1 = counter(100), c2 = counter(-5);
var sum = 0;
for (var i = 0; i < 5000; i++) {
    sum += c1.inc() + c2.dec();
}
console.log(c1.read(), c2.read(), sum % 1000003);
