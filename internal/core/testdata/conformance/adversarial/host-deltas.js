// Host-object mutation deltas.
Object.prototype.tagged = "yes";
Array.prototype.second = function () { return this[1]; };
var arr = [10, 20, 30];
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + arr.second()) % 99991; }
console.log(({}).tagged, arr.second(), n);
