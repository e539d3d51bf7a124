package interp

// HostShape reports the shape o carries and whether it is one of the
// builtin graph's frozen shapes, for the external tests.
func HostShape(o *Object) (s *Shape, frozen bool) {
	return o.shape, o.shape != nil && o.shape.frozen()
}
