// The delta diff's two walks: Math keeps its key sequence and changes one
// value (compared in place, position by position); String.prototype loses a
// key and gets it back at the end, and Number gains one (diffed by key).
Math.trunc = 3;
var at = String.prototype.charAt;
delete String.prototype.charAt;
String.prototype.charAt = function (i) { return "<" + at.call(this, i) + ">"; };
Number.added = "n";
var n = 0;
for (var i = 0; i < 6000; i++) { n = (n + Math.trunc * i) % 99991; }
console.log(Math.trunc, Math.PI > 3.14, "abc".charAt(1), Number.added, typeof Math.abs, n);
