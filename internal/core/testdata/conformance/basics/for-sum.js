var s = 0; for (var i = 0; i < 200; i++) { s += i; } console.log(s);
