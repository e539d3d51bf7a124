// `new boundFn()` constructs the target: bound args prepended, boundThis
// ignored, instances land on the target's prototype chain.
function Pair(a, b) { this.a = a; this.b = b; }
Pair.prototype.sum = function () { return this.a + this.b; };
var P1 = Pair.bind({poison: true}, 10);
var p = new P1(5);
console.log(p.a, p.b, p.sum(), p.poison === undefined, p instanceof Pair, p instanceof P1);
