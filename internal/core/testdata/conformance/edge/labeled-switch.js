// Labeled break out of a switch inside a loop.
function f() {
  var s = "";
  loop: for (var i = 0; i < 5; i++) {
    switch (i) {
      case 1: s += "one"; break;
      case 2: s += "two"; continue loop;
      case 3: break loop;
      default: s += "d" + i;
    }
    s += ".";
  }
  return s;
}
console.log(f());
