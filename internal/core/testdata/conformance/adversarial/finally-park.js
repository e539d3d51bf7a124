// Wherever the park lands it is in or about to leave a try statement with a
// finally: by return, throw, break and continue, through a catch that handles
// or rethrows, through a finally that overrides, two statements deep. The
// finally blocks call nothing, so the park is never inside one.
function step(i) { return (i * 7 + 3) % 11; }
function guarded(i) {
    var acc = 0;
    for (var k = 0; k < 3; k++) {
        try {
            try {
                acc += step(i + k);
                if (i % 7 === 0) { throw {at: i}; }
                if (i % 5 === 0) { return acc; }
                if (i % 3 === 0) { continue; }
                if (i % 11 === 0) { break; }
                acc += 1;
            } catch (e) {
                acc = -e.at;
                if (i % 14 === 0) { throw e; }
            } finally {
                cleanups = (cleanups + (k * 7 + 3) % 11) % 9973;
            }
        } finally {
            if (i % 33 === 0) { return "override"; }
        }
    }
    return acc + 1000;
}
var cleanups = 0, log = [];
for (var i = 0; i < 1500; i++) {
    try { log.push(guarded(i)); } catch (e) { log.push("E" + e.at); }
    if (log.length > 40) { log = [log.join("").length]; }
}
console.log(cleanups, log.join(","));
