// needs: implicits=full getters
var o = {};
Object.defineProperty(o, "1", {get: function () { return 5; }});
var i = 1;
console.log(o[i]);
