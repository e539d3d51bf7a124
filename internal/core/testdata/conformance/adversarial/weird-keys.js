// Value edge cases: -0, NaN, numeric-looking keys.
var o = {};
o[-0] = "neg-zero-key";
o[NaN] = "nan-key";
o["0"] = "zero-string";
o[""] = "empty";
o["__proto__x"] = "protoish";
var vals = [0/-1, 0/0, 1/0, -1/0, 9007199254740993];
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i * i) % 65521; }
console.log(o[0], o[NaN], o[""], o["__proto__x"], vals.join(","), n);
