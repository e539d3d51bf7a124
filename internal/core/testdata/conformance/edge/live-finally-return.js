// A return inside try whose finally calls a function: the completion it
// saved must survive a capture inside the finally, and tag, read only by the
// finally, is live across the call in the returned expression.
var log = [];
function id(v) { return v; }
function note(s) { log.push(s); return s; }
function f(x) {
  var tag = "t" + x;
  try {
    if (x > 2) { return id(x) * 2; }
    x = -x;
  } finally {
    note(tag);
  }
  return x;
}
var rs = [];
for (var i = 0; i < 5; i++) { rs.push(f(i)); }
console.log(rs.join(","), log.join(","));
