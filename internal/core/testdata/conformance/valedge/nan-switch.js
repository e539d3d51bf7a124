// NaN in switch dispatch: never matches any case, including NaN itself; strict
// equality drives case selection.
function f(x) {
  switch (x) {
    case NaN: return "nan-case";
    case 0: return "zero";
    case "NaN": return "string-nan";
    default: return "default";
  }
}
console.log(f(NaN), f(0 / 0), f(-0), f("NaN"), f(0));
