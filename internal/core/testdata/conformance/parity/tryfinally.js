var log = [];
function risky(i) {
  try {
    if (i % 3 === 0) { throw new Error("e" + i); }
    return "ok" + i;
  } finally {
    log.push(i);
  }
}
var out = [];
for (var i = 0; i < 60; i++) {
  try { out.push(risky(i)); } catch (e) { out.push(e.message); }
}
console.log(out.join(","), log.length);
