// The gap every other row of this group follows from: a string's length and
// indices count UTF-8 bytes, where JavaScript counts UTF-16 code units.
// known: prints "2 6 3\n" — a string is its UTF-8 bytes (wtf8.go): UTF-16 length with the ASCII fast path kept is ROADMAP item 8's
console.log("é".length, "日本".length, "abc".length);
