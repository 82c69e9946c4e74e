package interp

// EngineOf names the engine a session's function bodies run on, in the
// precedence Loader.call applies.
func EngineOf(l *Loader) string {
	switch {
	case l.comp != nil:
		return "compiled"
	case l.prep != nil:
		return "prepared"
	}
	return "reference"
}
