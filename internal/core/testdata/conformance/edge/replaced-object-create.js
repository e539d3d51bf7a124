// A guest that wraps Object.create to tag what it makes: the objects `new`
// allocates must not go through it, nor the desugared `new` ($construct).
// A prototype property that is no object gives Object.prototype, as `new`
// does.
var create = Object.create, made = 0;
Object.create = function (proto) { made = made + 1; var o = create(proto); o.tagged = true; return o; };
function f(n) { if (n === 0) { return 0; } return n + f(n - 1); }
function P(n) { this.x = f(n); }
function Q() {}
Q.prototype = 5;
var ps = [];
for (var i = 0; i < 4; i++) { ps.push(new P(i)); }
var q = Object.create(P.prototype);
console.log(made, ps[3].x, ps[3].tagged, q.tagged, ps[0] instanceof P, Object.getPrototypeOf(new Q()) === Object.prototype);
