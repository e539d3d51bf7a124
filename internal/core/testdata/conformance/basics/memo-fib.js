var memo = [0, 1];
function fibm(n) { if (memo[n] !== undefined) return memo[n]; var v = fibm(n - 1) + fibm(n - 2); memo[n] = v; return v; }
console.log(fibm(30));
