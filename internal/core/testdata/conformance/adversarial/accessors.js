// Shape re-interning with accessors.
// needs: getters
var hits = 0;
var o = {base: 10};
Object.defineProperty(o, "twice", {
    get: function () { hits++; return this.base * 2; },
    set: function (v) { this.base = v; },
    enumerable: true
});
var before = o.twice;
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + o.twice) % 1000003; }
o.twice = 21;
console.log(before, o.twice, o.base, hits, n);
