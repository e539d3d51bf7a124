// Object.prototype.toString names the receiver's kind: Null and Undefined
// for the two nullish values, the wrapper's class for other primitives, and
// the object's class otherwise (ES5 §15.2.4.2).
function f() {
  var ts = Object.prototype.toString;
  return [ts.call(null), ts.call(undefined), ts.call({}), ts.call([1]), ts.call(f),
    ts.call(new Error("e")), ts.call(new Date(0)), ts.call(1), ts.call("s"), ts.call(true)].join(" ");
}
console.log(f());
