var r = [];
outer: for (var i = 0; i < 4; i++) {
  for (var j = 0; j < 4; j++) {
    if (j > i) continue outer;
    if (i === 3) break outer;
    r.push(i * 10 + j);
  }
}
console.log(r.join(","));
