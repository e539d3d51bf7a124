function safeDiv(a, b) {
  try { if (b === 0) { throw new RangeError("div0"); } return a / b; }
  catch (e) { return -1; }
}
console.log(safeDiv(10, 2), safeDiv(1, 0));
