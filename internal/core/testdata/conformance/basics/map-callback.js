console.log([1, 2, 3].map(function (x) { return x + 1; }).join("-"));
