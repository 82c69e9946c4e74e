package interp

import "safetsa/internal/core"

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

// Slots reads every slot of a compiled form: a function's body, or nil
// while no session has lowered it.
func Slots(c *Compiled) []*CFunc {
	out := make([]*CFunc, len(c.funcs))
	for i := range c.funcs {
		out[i] = c.funcs[i].Load()
	}
	return out
}

// ArenaSlack lowers mod and reports how many operand and phi-move slots
// prepareFunc counted for its functions and never carved.
func ArenaSlack(mod *core.Module) (args, moves int, err error) {
	c := newFcomp(mod, len(mod.Funcs))
	for _, f := range mod.Funcs {
		if _, err := c.prepareFunc(f); err != nil {
			return 0, 0, err
		}
		args += len(c.args)
		moves += len(c.moves)
	}
	return args, moves, nil
}
