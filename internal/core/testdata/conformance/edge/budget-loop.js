// Step-budget exhaustion: every cell aborts, none prints.
function f() { var i = 0; while (true) { i++; } }
f();
