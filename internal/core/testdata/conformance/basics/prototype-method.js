function P(x, y) { this.x = x; this.y = y; }
P.prototype.mag2 = function () { return this.x * this.x + this.y * this.y; };
var p = new P(3, 4);
console.log(p.mag2(), p instanceof P);
