// An identifier in statement position is a read: it throws when nothing
// declares the name, and is otherwise nothing.
var declared = 1;
declared;
console.log("before");
nosuch;
console.log("after");
