// Labeled break and continue crossing finally blocks at two loop levels, and a
// labeled block left from inside a try.
function f() {
  var s = "";
  outer: for (var i = 0; i < 3; i++) {
    try {
      for (var j = 0; j < 3; j++) {
        try { if (j === 1 && i === 0) { continue outer; } if (i === 2) { break outer; } s += i + "" + j; }
        finally { s += "a"; }
      }
    } finally { s += "b|"; }
  }
  blk: { try { s += "in"; break blk; } finally { s += "F"; } s += "unreached"; }
  return s;
}
console.log(f());
