package interp

import "safetsa/internal/core"

// FusedPairs counts, over a prepared module, the superinstructions the
// compiled engine builds, by pair: a pc counts only when fuse returned a
// handler for it, and its name comes from pairAt, the decision fuse uses.
func FusedPairs(prep *Prepared) map[string]int {
	names := [...]string{
		backEdgePair:   "jump→loopstep",
		nullFieldPair:  "nullcheck→getfield",
		nullIndexPair:  "nullcheck→indexcheck",
		indexEltPair:   "indexcheck→getelt",
		constConstPair: "const→const",
		paramParamPair: "param→param",
		paramConstPair: "param→const",
	}
	n := map[string]int{}
	for _, pf := range prep.Funcs {
		for pc := range pf.Code {
			if h, _ := fuse(pf.Code, pc); h == nil {
				continue
			}
			p := pairAt(pf.Code, pc)
			name := names[p]
			if p == compareBranchPair {
				name = pf.Code[pc].Prim.String() + "→branchfalse"
			}
			n[name]++
		}
	}
	return n
}

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

// LowerInto lowers every function of mod into mem, lent as a door lends
// it, each through a stocked lowerer as a session's first call does.
func LowerInto(mod *core.Module, mem *CodeArena) error {
	mem.lend()
	for _, f := range mod.Funcs {
		c := lowerers.Take()
		c.mod, c.nFuncs = mod, len(mod.Funcs)
		_, err := c.lowerFunc(f, &Lowering{}, mem)
		lowerers.Give(c)
		if err != nil {
			return err
		}
	}
	return nil
}

// CodeSlack reports, over the filled slots of c, the records and side
// array entries kept in room their function never uses.
func CodeSlack(c *Compiled) (records, side int) {
	for _, cf := range Slots(c) {
		if cf != nil {
			records += cap(cf.Code) - len(cf.Code)
			side += cap(cf.moves) - len(cf.moves) + cap(cf.args) - len(cf.args) +
				cap(cf.sites) - len(cf.sites) + cap(cf.strs) - len(cf.strs)
		}
	}
	return records, side
}
