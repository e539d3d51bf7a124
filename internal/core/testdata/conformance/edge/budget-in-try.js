// A step-budget abort inside a try is no completion: no finally block runs on
// its way out.
function f() { try { while (true) { f.n = (f.n | 0) + 1; } } finally { console.log("finally ran"); } }
try { f(); } finally { console.log("outer finally ran"); }
