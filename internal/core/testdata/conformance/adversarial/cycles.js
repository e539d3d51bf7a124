// Cyclic graphs.
var a = {name: "a"};
var b = {name: "b", peer: a};
a.peer = b;
a.self = a;
var ring = [a, b];
ring.push(ring);
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + i) % 97; }
console.log(a.peer.peer.self.name, b.peer.name, ring[2][0].name, n);
