// delete arr[i] with named properties present.
function f() { var a = [1,2,3]; a.foo = "x"; delete a[1];
return a[1] + "/" + a.length + "/" + a.foo; }
console.log(f());
