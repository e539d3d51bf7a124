// Number::toString: decimal notation from 1e-6 up to 1e21, and an unpadded
// exponent outside.
console.log(1e-7, 0.00001, 0.000001234, 1.25e-7, 0.000001, 123.456, 1 / 3);
console.log(1e21, 1e20, -2.5e21, 1.5e300, -1.5e-300, 0.1 + 0.2);
