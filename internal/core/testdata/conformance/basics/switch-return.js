function cls(x) { switch (x % 3) { case 0: return "a"; case 1: return "b"; default: return "c"; } }
var out = "";
for (var i = 0; i < 9; i++) { out += cls(i); }
console.log(out);
