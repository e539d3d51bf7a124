// finally, lowered: every way control can leave a try statement routes through
// its finally block, and the block's own abrupt completion wins. return
// through one finally and through two nested ones.
function one(x) { var s = ""; try { return s + "r" + x; } finally { s += "never"; log.push("f1"); } }
function two(x) {
  try { try { return "r" + x; } finally { log.push("inner"); } log.push("skipped"); }
  finally { log.push("outer"); }
}
function bare() { try { return; } finally { log.push("bare"); } }
var log = [];
console.log(one(1), two(2), bare(), log.join(","));
