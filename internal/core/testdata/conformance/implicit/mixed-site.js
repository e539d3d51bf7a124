// One `+` whose left operand is a number on even turns — the engine answers
// — and on odd turns an object whose valueOf loops 500 times, so that the
// helper's frame is on the stack of every capture taken inside it.
// needs: implicits=full getters
var slow = {valueOf: function () { var s = 0; for (var j = 0; j < 500; j++) { s = s + j % 7; } return s; }};
var total = 0;
for (var i = 0; i < 6; i++) {
  var left = i % 2 === 0 ? i : slow;
  total = total + (left + i);
}
console.log("mixed", total);
