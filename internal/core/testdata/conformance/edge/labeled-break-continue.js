// break/continue through labeled loops, including from a catch.
function f() {
  var log = "";
  outer: for (var i = 0; i < 4; i++) {
    inner: for (var j = 0; j < 4; j++) {
      if (j === 1) { continue inner; }
      if (j === 2 && i === 1) { continue outer; }
      try { if (i === 2) { break outer; } } catch (e) {}
      log += i + "" + j + ";";
    }
  }
  return log;
}
console.log(f());
