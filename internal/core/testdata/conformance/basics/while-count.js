var n = 0; while (n < 100) { n++; } console.log(n);
