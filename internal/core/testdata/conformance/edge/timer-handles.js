// Timer handles: real distinct IDs, cancellation (double and unknown cancels
// are no-ops), extra setTimeout args forwarded to the callback.
var a = setTimeout(function () { console.log("A"); }, 20);
var b = setTimeout(function (x, y) { console.log("B", x, y); }, 10, "p", "q");
var c = setTimeout(function () { console.log("C-dead"); }, 5);
console.log(typeof a, a !== b, b !== c, a >= 1);
clearTimeout(c);
clearTimeout(c);
clearTimeout(12345);
