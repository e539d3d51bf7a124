function Base() { this.kind = "base"; }
Base.prototype.describe = function () { return "I am " + this.kind; };
function Derived() { Base.call(this); this.kind = "derived"; }
Derived.prototype = Object.create(Base.prototype);
Derived.prototype.shout = function () { return this.describe().toUpperCase(); };
var d = new Derived();
var n = 0;
for (var i = 0; i < 5000; i++) { n = (n + d.shout().length) % 4093; }
console.log(d.describe(), d.shout(), n);
