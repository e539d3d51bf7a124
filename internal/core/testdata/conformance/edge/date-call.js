// Date without new returns a string (spec 21.4.2); a Date instance's time-
// value is a data slot, stable after the clock advances.
var s = Date();
var d = new Date();
var t0 = d.getTime();
setTimeout(function () {
  console.log(typeof s, s.length > 10, d.getTime() === t0, typeof d.valueOf());
}, 25);
