package engine

import "testing"

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	for _, name := range []string{"chrome", "edge", "firefox", "safari", "chromebook"} {
		p := ps[name]
		if p == nil {
			t.Fatalf("missing profile %q", name)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
		if p.Speed < 1 || p.MaxStack <= 0 {
			t.Errorf("profile %q has nonsensical Speed/MaxStack: %+v", name, p)
		}
	}
}

// TestFigure11Asymmetries pins the cost relationships the paper's
// browser-specific results depend on.
func TestFigure11Asymmetries(t *testing.T) {
	chrome, edge := Chrome(), Edge()
	// Edge-like engines make exception handlers expensive (checked-return
	// wins there); Chrome-like engines make them cheap (exceptional wins).
	if edge.TryCost <= chrome.TryCost {
		t.Error("edge try/catch should be more expensive than chrome's")
	}
	// Edge makes Object.create expensive relative to `new` (dynamic
	// constructors win); Chrome the other way (desugaring wins).
	if !(edge.ObjectCreateCost > edge.NewCost) {
		t.Error("edge Object.create should cost more than new")
	}
	if !(chrome.ObjectCreateCost < chrome.NewCost) {
		t.Error("chrome Object.create should cost less than new")
	}
}

func TestChromeBookIsSlowChrome(t *testing.T) {
	cb, chrome := ChromeBook(), Chrome()
	if cb.Speed <= chrome.Speed {
		t.Error("chromebook should be slower")
	}
	if cb.TryCost != chrome.TryCost || cb.ObjectCreateCost != chrome.ObjectCreateCost {
		t.Error("chromebook should share chrome's cost structure")
	}
}

func TestShallowStacks(t *testing.T) {
	ps := Profiles()
	if ps["firefox"].MaxStack >= ps["chrome"].MaxStack {
		t.Error("the paper singles out Firefox's shallow stack (§5.2)")
	}
}
