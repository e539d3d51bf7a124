// Number.prototype.toFixed rounds a tie to the larger magnitude (ES5
// §15.7.4.5 picks the larger n of |x|), and from 1e21 on it is ToString.
function f() {
  var xs = [0.5, 1.5, 2.5, -2.5, -0.5, 0.125, 1.005, 10.235, -0, -0.0000001, 1e21, -1.5e21, 123.456, 0];
  var out = [];
  for (var i = 0; i < xs.length; i++) {
    out.push(xs[i].toFixed(0) + "/" + xs[i].toFixed(2));
  }
  out.push((2.5).toFixed(), (1e-10).toFixed(20), (NaN).toFixed(2), (Infinity).toFixed(1), (-Infinity).toFixed(1));
  out.push((1.45).toFixed(1), (8.345).toFixed(2), (0.000001).toFixed(7), (999.995).toFixed(2), (9.5).toFixed(0));
  return out.join(" ");
}
console.log(f());
