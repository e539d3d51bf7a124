function mk() { var c = 0; return function () { c = c + 1; return c; }; }
var a = mk(), b = mk();
a(); a(); b();
console.log(a(), b());
