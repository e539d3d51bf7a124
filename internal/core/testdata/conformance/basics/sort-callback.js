var arr = [];
for (var i = 9; i >= 0; i--) { arr.push(i); }
arr.sort(function (a, b) { return a - b; });
console.log(arr.join(""));
