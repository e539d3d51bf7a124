// State that used to pin a guest resident and now serializes as plain data;
// held live across every park point.
function add3(a, b, c) { return a + b + c; }
var add1 = add3.bind(null, 1);
var add2 = add1.bind({ignored: true}, 10);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + add2(i)) % 1000003; }
console.log(add3.length, add1.length, add2.length, add2(5), n);
