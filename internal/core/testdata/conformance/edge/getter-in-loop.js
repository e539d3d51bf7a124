// Getter/setter invocation through member reads in loops (IC reuse).
// needs: getters
function f() {
  var hits = 0;
  var o = { get v() { hits++; return hits; } };
  var sum = 0;
  for (var i = 0; i < 5; i++) { sum += o.v; }
  return sum + "/" + hits;
}
console.log(f());
