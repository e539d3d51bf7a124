function f() { try { return compute(); } finally { console.log("cleanup"); } }
function compute() { return 42; }
console.log(f());
