// instanceof consults the bound chain's ultimate target prototype.
function Animal() {}
function Dog() {}
Dog.prototype = new Animal();
var D = Dog.bind(null);
var DD = D.bind(null);
var d = new DD();
console.log(d instanceof DD, d instanceof D, d instanceof Dog, d instanceof Animal, typeof DD);
