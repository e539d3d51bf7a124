// A formal captured two function levels up. Under args=full each level that
// a deeper one reads keeps an alias of its own arguments object; the
// innermost function must reach the outermost's through a name the middle
// one does not shadow.
function add(a) { return function (b) { return function (c) { return a + b + c; }; }; }
function pick(a, b) { return function (c) { return function (d) { return [a, b, c, d].join(""); }; }; }
console.log(add(1)(20)(300), pick("p", "q")("r")("s"));
