function G() { this.a = 3; return 7; } console.log(new G().a);
