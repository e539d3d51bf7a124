// try/finally interacting with return and loops.
function f() {
  var s = "";
  for (var i = 0; i < 3; i++) {
    try { if (i === 1) { continue; } s += "t" + i; } finally { s += "f" + i; }
  }
  try { return s + "|ret"; } finally { s += "never-seen"; }
}
console.log(f());
