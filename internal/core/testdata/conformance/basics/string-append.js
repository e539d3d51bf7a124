var acc = "";
function emit(s) { acc += s; return acc.length; }
emit("a"); emit("bc"); emit("d");
console.log(acc, acc.length);
