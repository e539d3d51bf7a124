// typeof of unresolvable names; void; delete of non-members.
function f() { return typeof nothingHere + "," + typeof f + "," +
(void "x") + "," + (delete 1); }
console.log(f());
