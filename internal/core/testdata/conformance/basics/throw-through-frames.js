function thrower() { throw "deep"; }
function mid() { thrower(); }
try { mid(); } catch (e) { console.log("caught", e); }
