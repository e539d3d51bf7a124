// needs: implicits=full getters
var seen = "unset", o = {};
Object.defineProperty(o, "2", {set: function (v) { seen = v; }});
var i = 2;
o[i] = 9;
console.log(seen, o[i]);
