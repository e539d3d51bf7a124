// Shape re-interning with deletions.
var objs = [];
for (var i = 0; i < 50; i++) {
    var o = {a: i};
    if (i % 2) { o.b = i * 2; }
    if (i % 3) { o.c = i * 3; delete o.a; }
    o["k" + (i % 7)] = i;
    objs.push(o);
}
var n = 0;
for (var i = 0; i < 6000; i++) {
    var o = objs[i % objs.length];
    n = (n + (o.a || 0) + (o.b || 0) + (o.c || 0)) % 1000003;
}
console.log(n, objs.length);
