// A throw out of a call a restore re-entered: the handler runs in normal
// mode with the call site's label still set, and the loop's label test must
// not send control into the body once more.
function g(i) { if (i === 4) { throw new Error("at 4"); } return i; }
var n = 0, i = 0;
while (i < 5) {
  try { n = n + g(i); } catch (e) { n = n + 100; }
  i++;
}
console.log(n);
