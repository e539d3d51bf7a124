// needs: eval
// known: pinned — code made by eval has no place in a blob's code table, so a guest that ran any stays resident
eval("console.log(h()); function h(){ return 'hoisted' }"); console.log(typeof h)
