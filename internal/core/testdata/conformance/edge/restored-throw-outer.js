// The same throw, passing through an intermediate frame that was re-entered
// too before it reaches the handler.
function g(i) { if (i === 4) { throw new Error("at 4"); } return i; }
function h(i) { return g(i) + 1; }
var n = 0, i = 0;
while (i < 5) {
  try { n = n + h(i); } catch (e) { n = n + 100; }
  i++;
}
console.log(n);
