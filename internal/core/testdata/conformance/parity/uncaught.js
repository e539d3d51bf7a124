var n = 0;
for (var i = 0; i < 800; i++) { n += i; }
console.log("before", n);
undefinedFunction(n);
console.log("after");
