// A valueOf stored under a computed name: no identifier, property name or
// string literal spells valueOf or toString, so the program compiles without
// the implicits helpers it declares, and + and * convert a Money in an atomic
// section, as a native does. That is the fence of the rules that narrow a
// compile (DESIGN_interp.md, "What a program uses"): the method runs whole,
// with no pause inside its loop (TestNarrowingFence), and prints the same.
// needs: implicits=full
var name = "value" + "Of";
inside = false; // a global, which a test reads at each pause
function Money(c) { this.c = c; }
Money.prototype[name] = function () {
  inside = true;
  var s = 0;
  for (var i = 0; i < 10; i++) { s = s + 1; }
  inside = false;
  return this.c + s;
};
var a = new Money(5), b = new Money(7);
console.log(a + b, a * 2, a < b, -a);
