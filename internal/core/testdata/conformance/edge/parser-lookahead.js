// What the parser decides from the tokens ahead of it: arrows of 0, 1 and 2
// parameters and a curried one against a parenthesised expression and a
// comma expression; a line break inside a comment after `return`, which ends
// the statement, against the same comment on one line; a chain of two labels
// on one loop; and a `++` on the line after a statement.
var zero = () => 5;
var one = x => x - 1;
var two = (a, b) => a + b;
var add = a => b => a + b;
var paren = (1 + 2);
var comma = (0, 42);

function broken() {
  return /* a comment
  with a line break */ 1;
}
function whole() {
  return /* a comment on one line */ 2;
}

var log = [];
outer: inner: for (var k = 0; k < 3; k++) {
  for (var j = 0; j < 2; j++) {
    log.push(k + ":" + j);
    if (k === 0) continue outer;
    break inner;
  }
}

var i = 0
var n = 1
++i
console.log(zero(), one(5), two(3, 4), add(4)(5), paren, comma, broken(), whole(), log.join(","), n, i);
