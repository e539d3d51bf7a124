// NaN in a Map-like dispatch table: property lookup via coercion DOES unify
// every NaN (one "NaN" key), unlike ===.
function f() {
  var table = {};
  table[NaN] = 0;
  table[0 / 0] = (table[NaN] || 0) + 1;
  var hits = 0;
  var probes = [NaN, 0 / 0, Infinity - Infinity];
  for (var i = 0; i < probes.length; i++) {
    if (table[probes[i]] === 1) { hits++; }
  }
  return hits + "/" + (NaN === NaN) + "/" + (NaN !== NaN);
}
console.log(f());
