// Unlabeled break and continue through one finally and through two.
function f() {
  var s = "";
  for (var i = 0; i < 4; i++) {
    try { if (i === 1) { continue; } if (i === 3) { break; } s += "t" + i; }
    finally { s += "f" + i; }
    s += ";";
  }
  var j = 0;
  while (j < 4) {
    j++;
    try { try { if (j === 2) { continue; } if (j === 4) { break; } s += "T" + j; }
          finally { s += "i" + j; } s += "m"; }
    finally { s += "o" + j; }
  }
  return s;
}
console.log(f());
