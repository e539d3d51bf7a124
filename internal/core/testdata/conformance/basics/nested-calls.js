function f(a, b) { return a + b; } console.log(f(f(1, 2), f(3, 4)));
