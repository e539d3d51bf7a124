// A delay that is not a positive number — NaN, undefined, negative, a
// string that is not a number — is 0: all four run before a timer due in
// 10 ms. (Sorted: a preempted callback's resume queues behind its peers.)
var ran = [];
setTimeout(function () { console.log(ran.sort().join(","), "then ten"); }, 10);
setTimeout(function () { ran.push("nan"); }, NaN);
setTimeout(function () { ran.push("undefined"); }, undefined);
setTimeout(function () { ran.push("negative"); }, -5);
setTimeout(function () { ran.push("string"); }, "soon");
