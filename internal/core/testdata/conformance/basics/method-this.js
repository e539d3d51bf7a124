var o = { n: 5, bump: function (k) { this.n += k; return this.n; } };
console.log(o.bump(1), o.bump(2), o.n);
