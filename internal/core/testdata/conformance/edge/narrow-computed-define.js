// A looping getter installed through Object["define" + "Property"]: Object
// is followed by a bracket, not by a dot and a name, so the rules that narrow
// a compile to what the program uses keep the getters sub-language it
// declares, and a pause can land inside the getter's loop
// (TestNarrowingFence counts them; DESIGN_interp.md, "What a program uses").
// needs: getters
var define = Object["define" + "Property"];
inside = false; // a global, which a test reads at each pause
var o = {};
define(o, "sum", {get: function () {
  inside = true;
  var s = 0;
  for (var i = 0; i < 60; i++) { s = (s + i * i) % 1009; }
  inside = false;
  return s;
}});
console.log(o.sum, o.sum + 1);
