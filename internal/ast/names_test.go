package ast

import "testing"

// TestNamesAvoid: a made-up name passes over the names in the set.
func TestNamesAvoid(t *testing.T) {
	taken := Names{"$t2": true, "$t3": true, "$k": true, "$k1": true}
	n := 1
	if name := taken.Fresh("$t", &n); name != "$t4" || n != 4 {
		t.Errorf("Fresh after 1 = %s, count %d; want $t4, 4", name, n)
	}
	if name := taken.Avoid("$lbl"); name != "$lbl" {
		t.Errorf("Avoid($lbl) = %s, want it kept", name)
	}
	if name := taken.Avoid("$k"); name != "$k2" {
		t.Errorf("Avoid($k) = %s, want $k2", name)
	}
	var none Names
	if name := none.Fresh("$L", &n); name != "$L5" {
		t.Errorf("Fresh over the nil set = %s, want $L5", name)
	}
}
