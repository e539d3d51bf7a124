// needs: implicits=full getters
function f(one, two, s, u, n, t) {
  var a = [one, two, 3];
  console.log(one + s, s * "4", n + one, u + one, t + t, "a" < "b", two < "10", s < "10",
    n == 0, n >= 0, s == two, u != u, NaN != NaN, -s, +t, s.length, "abc"[one], a.length, a[two], a[5]);
  a[4] = one - two;
  console.log(a.length, a[3], a[4], one / 0, 7 % two, "x" + n + u + t);
}
f(1, 2, "2", undefined, null, true);
