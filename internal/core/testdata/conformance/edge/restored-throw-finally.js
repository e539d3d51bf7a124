// The same throw, taken up by a finally that continues the loop.
function g(i) { if (i === 4) { throw new Error("at 4"); } return i; }
var n = 0, i = 0;
while (i < 5) {
  try { n = n + g(i); } finally { i++; continue; }
}
console.log(n);
