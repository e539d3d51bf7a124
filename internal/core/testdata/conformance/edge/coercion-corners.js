// String/number coercion corners.
function f() { return (1e20 | 0) + "," + (1e20 >>> 0) + "," + String(-0) + "," +
({} + "") + "," + (-0 === 0); }
console.log(f());
