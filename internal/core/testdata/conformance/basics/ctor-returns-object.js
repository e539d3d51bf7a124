function F() { this.a = 1; return { a: 2 }; } console.log(new F().a);
