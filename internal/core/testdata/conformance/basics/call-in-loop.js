function g(x) { return x * 2; } var t = 0; for (var i = 0; i < 50; i++) { t += g(i); } console.log(t);
