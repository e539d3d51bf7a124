// State that used to pin a guest resident and now serializes as plain data;
// held live across every park point.
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm = function () { return this.x * this.x + this.y * this.y; };
var P7 = Point.bind({hijack: "me"}, 7);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i) % 4093; }
var p = new P7(9);
console.log(p.x, p.y, p.norm(), p instanceof Point, p instanceof P7,
    p.hijack === undefined, n);
