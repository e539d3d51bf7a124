function outer() {
  var total = 0;
  function add(k) { total = total + k; return total; }
  for (var i = 1; i <= 10; i++) { add(i); }
  return total;
}
console.log(outer());
