// Event-loop interleaving with timers.
var log = [];
function tick(n) { log.push(n); if (n < 3) { setTimeout(function () { tick(n + 1); }, 10); } }
setTimeout(function () { log.push("late"); console.log(log.join(",")); }, 100);
tick(0);
