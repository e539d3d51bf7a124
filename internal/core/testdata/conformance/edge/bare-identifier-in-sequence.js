// An identifier inside a sequence is a read too, whether the sequence is a
// statement or an operand.
var declared = 1;
declared, console.log("before");
try { nosuch, console.log("after"); } catch (e) { console.log(e.name); }
try { var y = (nosuch, 3); console.log(y); } catch (e) { console.log(e.name); }
var z = (declared, 2);
console.log(z);
nosuch, console.log("end");
