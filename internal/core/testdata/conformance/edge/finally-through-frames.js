// A throw from three frames down passes a finally in every frame, and one from
// 150 frames down 150 of them.
var trail = [];
function c3(x) { try { if (x) { throw new Error("deep" + x); } return "fine"; } finally { trail.push("c3"); } }
function c2(x) { try { return c3(x) + "2"; } finally { trail.push("c2"); } }
function c1(x) { try { return c2(x) + "1"; } finally { trail.push("c1"); } }
function rec(n) { try { if (n === 0) { throw new RangeError("bottom"); } return rec(n - 1); } finally { depth++; } }
var depth = 0, got;
try { got = c1(0) + "," + c1(7); } catch (e) { got = e.message; }
try { rec(150); } catch (e) { got += "," + e.name + "," + depth; }
console.log(got, trail.join(""));
