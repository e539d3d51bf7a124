// finally overriding a return completion.
function f() { try { return "a"; } finally { return "b"; } }
console.log(f());
