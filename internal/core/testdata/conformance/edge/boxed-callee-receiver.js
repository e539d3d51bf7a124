// A call of a name a nested function reassigns (a var holding a function,
// or a declared function) is a plain call: the callee gets no receiver,
// whatever cell the name is kept in for a continuation to share.
function who() { return typeof this === "object" && this !== null && "v" in this ? "box" : "plain"; }
function viaVar() {
  var g = who;
  function swap() { g = g; }
  swap();
  return g();
}
function viaDecl() {
  function h() { return typeof this === "object" && this !== null && "v" in this ? "box" : "plain"; }
  function swap() { h = h; }
  swap();
  return h();
}
console.log(viaVar(), viaDecl());
