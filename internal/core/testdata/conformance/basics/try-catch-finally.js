try { throw new Error("boom"); } catch (e) { console.log(e.message); } finally { console.log("fin"); }
