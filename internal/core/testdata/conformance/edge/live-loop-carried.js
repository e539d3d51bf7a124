// Loop-carried locals a frame must save although no statement after the call
// in the same iteration reads them: i, written after the body's last call
// and read by the loop's test, and prev, written before the call and read
// only at the top of the next iteration.
function id(v) { return v; }
function sum(n) {
  var acc = 0, i = 0, prev = 0;
  while (i < n) {
    acc = acc + prev;
    prev = i * 3;
    var x = id(i);
    acc = acc + x;
    i = i + 1;
  }
  return acc;
}
function skip(n) {
  var acc = 0;
  for (var i = 0; i < n; i++) {
    var x = id(i);
    if (x % 3 === 0) { continue; }
    acc += x;
  }
  return acc;
}
console.log(sum(40), skip(40));
