// A call returned from inside a try block with a catch is not a tail call:
// the handler is still live. anf names it as it names any other call, so a
// capture taken below it keeps the frame that receives its value. While anf
// kept it in tail position, exceptional q1 and declared q25 printed "" (the
// capture unwound through the tail call's missing frame) and eager printed
// "undefined end\n" (the tail call's result was dropped on re-entry).
function g() { return 7; }
function h() { try { return g(); } catch (e) { return "caught"; } }
console.log(h(), "end");
