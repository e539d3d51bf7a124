package ast

import "strconv"

// Names is a set of identifiers. The one a compile carries (Program.Guest)
// holds the guest's own `$` names, which every name the compiler makes up
// avoids: its temporaries share the guest's scopes, and one that took a
// guest's name would capture or shadow that binding.
type Names map[string]bool

// Fresh advances *n and returns prefix followed by it, passing over the
// names in the set.
func (s Names) Fresh(prefix string, n *int) string {
	for {
		*n++
		if name := prefix + strconv.Itoa(*n); !s[name] {
			return name
		}
	}
}

// Avoid returns name, or when the set holds it, name followed by the least
// positive number it does not hold.
func (s Names) Avoid(name string) string {
	if !s[name] {
		return name
	}
	n := 0
	return s.Fresh(name, &n)
}
