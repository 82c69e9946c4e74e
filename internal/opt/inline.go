package opt

import (
	"safetsa/internal/core"
)

// Inlining: a direct xcall to a small, non-recursive, straight-line
// unit-local callee is replaced by an SSA-renamed copy of the callee's
// body at the call site. Parameters map to the call's arguments (whose
// planes the verifier already proved identical to the parameter planes),
// every cloned result gets a fresh value ID, and uses of the call's
// result are rewritten to the clone of the returned value.
//
// Exception-edge stitching: if the call site sits inside a try region,
// its single exception edge (index k into the handler's predecessor
// list) is replaced in place by one edge per cloned potentially-throwing
// instruction, in clone order — the clones occupy the call's old
// position in the code, so the decoder's strict program-order edge
// numbering is preserved. Each handler phi duplicates its operand for
// edge k across the new edges (sound: that operand was available before
// the call, hence before every clone). An edge's index is its position in
// the predecessor list, so nothing else is renumbered. A callee that
// cannot throw at all removes the call's edge entirely.
const (
	// inlineMaxInstrs bounds the callee body size (non-parameter code
	// instructions).
	inlineMaxInstrs = 16
	// inlineMaxRounds bounds repeated expansion inside one caller, so a
	// chain f → g → h inlines through at most this depth per pipeline
	// run while the size budget keeps the caller from blowing up.
	inlineMaxRounds = 3
)

func inlinePass(sc *scratch) Pass {
	var rec map[*core.Func]bool
	return Pass{
		Name:  "inline",
		Start: func(m *core.Module) { rec = m.RecursiveFuncs() },
		Run: func(m *core.Module, f *core.Func, o Options, st *Stats) {
			st.Inlined += inline(sc, m, f, rec)
		},
	}
}

func inline(sc *scratch, m *core.Module, f *core.Func, rec map[*core.Func]bool) int {
	total := 0
	for round := 0; round < inlineMaxRounds; round++ {
		n := inlineRound(sc, m, f, rec)
		if n == 0 {
			break
		}
		total += n
	}
	return total
}

func inlineRound(sc *scratch, m *core.Module, f *core.Func, rec map[*core.Func]bool) int {
	n := 0
	// (call result, inlined result) pairs: the replacement table is sized
	// once the round has defined its clones' values.
	sc.calls = sc.calls[:0]
	for _, b := range f.Blocks {
		// out is b's new code, started at the first expanded call.
		var out []*core.Instr
		for i, in := range b.Code {
			g, ret := inlinableCallee(m, f, in, rec)
			if g == nil {
				if out != nil {
					out = append(out, in)
				}
				continue
			}
			if out == nil {
				out = append(make([]*core.Instr, 0, len(b.Code)+len(g.Entry.Code)), b.Code[:i]...)
			}
			at := len(out)
			var res core.ValueID
			out, res = cloneBody(sc, out, f, b, g, in, ret)
			stitchExcEdges(f, in, out[at:])
			if in.ID != core.NoValue {
				sc.calls = append(sc.calls, [2]core.ValueID{in.ID, res})
			}
			n++
		}
		if out != nil {
			b.Code = out
		}
	}
	if len(sc.calls) > 0 {
		sc.repl = sized(sc.repl, f.NumValues()+1)
		for _, c := range sc.calls {
			sc.repl[c[0]] = c[1]
		}
		replaceUses(f, sc.repl)
	}
	return n
}

// inlinableCallee decides whether the instruction is an xcall whose
// callee can be expanded here, returning the callee and the value it
// returns (NoValue for void). All structural conditions are checked up
// front so that cloning cannot fail halfway.
func inlinableCallee(m *core.Module, f *core.Func, in *core.Instr, rec map[*core.Func]bool) (*core.Func, core.ValueID) {
	if in.Op != core.OpXCall {
		return nil, core.NoValue
	}
	g := m.FuncOf(in.Method)
	if g == nil || g == f || rec[g] {
		return nil, core.NoValue
	}
	if len(g.Blocks) != 1 || g.Entry == nil || len(g.Entry.Phis) > 0 {
		return nil, core.NoValue
	}
	ret, ok := straightLineBody(g)
	if !ok {
		return nil, core.NoValue
	}
	if in.ID != core.NoValue && ret == core.NoValue {
		return nil, core.NoValue
	}
	size := 0
	for _, gi := range g.Entry.Code {
		switch gi.Op {
		case core.OpParam:
			if int(gi.Aux) < 0 || int(gi.Aux) >= len(in.Args) {
				return nil, core.NoValue
			}
		case core.OpCatch, core.OpMem0:
			// Neither belongs in a function entry; refuse rather than
			// clone something the verifier would reject.
			return nil, core.NoValue
		default:
			size++
		}
	}
	if size > inlineMaxInstrs {
		return nil, core.NoValue
	}
	return g, ret
}

// straightLineBody checks that a single-block function's CST is a pure
// sequence: exactly one block leaf (the entry) optionally followed by
// one return, nothing else. Such a body has no internal control flow and
// no try regions, so its instructions can be spliced into any caller
// position verbatim.
func straightLineBody(g *core.Func) (ret core.ValueID, ok bool) {
	var leaves []*core.CSTNode
	var flatten func(n *core.CSTNode) bool
	flatten = func(n *core.CSTNode) bool {
		if n == nil {
			return true
		}
		switch n.Kind {
		case core.CSeq:
			for _, k := range n.Kids {
				if !flatten(k) {
					return false
				}
			}
			return true
		case core.CBlock, core.CReturn:
			leaves = append(leaves, n)
			return true
		}
		return false
	}
	if !flatten(g.Body) {
		return core.NoValue, false
	}
	if len(leaves) == 0 || len(leaves) > 2 {
		return core.NoValue, false
	}
	if leaves[0].Kind != core.CBlock || leaves[0].Block != g.Entry {
		return core.NoValue, false
	}
	if len(leaves) == 2 {
		if leaves[1].Kind != core.CReturn {
			return core.NoValue, false
		}
		return leaves[1].Val, true
	}
	return core.NoValue, true
}

// cloneBody appends a copy of the callee's code to out (the caller
// block's new code, up to the call's position), renaming every defined
// value and substituting the call's arguments for parameters. Returns the
// extended code and the caller-side value standing for the callee's
// return.
func cloneBody(sc *scratch, out []*core.Instr, f *core.Func, b *core.Block, g *core.Func, call *core.Instr, ret core.ValueID) ([]*core.Instr, core.ValueID) {
	// vmap[v] is the caller's value for the callee's v; NoValue maps to
	// itself.
	sc.vmap = sized(sc.vmap, g.NumValues()+1)
	vmap := sc.vmap
	for _, gi := range g.Entry.Code {
		if gi.Op == core.OpParam {
			vmap[gi.ID] = call.Args[gi.Aux]
			continue
		}
		c := sc.instrs.One()
		*c = core.Instr{
			Op:      gi.Op,
			Type:    gi.Type,
			ArgType: gi.ArgType,
			TypeArg: gi.TypeArg,
			Field:   gi.Field,
			Method:  gi.Method,
			Prim:    gi.Prim,
			Aux:     gi.Aux,
			Const:   gi.Const,
			Blk:     b,
		}
		c.Args = sc.args.Take(len(gi.Args))
		for i, a := range gi.Args {
			c.Args[i] = vmap[a]
		}
		c.Bind = vmap[gi.Bind]
		if gi.HasResult() {
			f.Define(c)
			vmap[gi.ID] = c.ID
		}
		out = append(out, c)
	}
	return out, vmap[ret]
}

// stitchExcEdges rethreads the call's exception edge (if any) to the
// cloned throwing instructions, keeping the handler's predecessor list in
// transmission order and every handler phi aligned with it.
func stitchExcEdges(f *core.Func, call *core.Instr, clones []*core.Instr) {
	h, k := f.ExcEdgeOf(call)
	if h == nil {
		return
	}
	var throwers []*core.Instr
	for _, c := range clones {
		if c.Op.CanThrow() {
			throwers = append(throwers, c)
		}
	}
	n := len(throwers)
	preds := make([]core.Pred, 0, len(h.Preds)+n-1)
	preds = append(preds, h.Preds[:k]...)
	for _, t := range throwers {
		preds = append(preds, core.Pred{From: call.Blk, Site: t})
	}
	h.Preds = append(preds, h.Preds[k+1:]...)
	for _, phi := range h.Phis {
		args := make([]core.ValueID, 0, len(phi.Args)+n-1)
		args = append(args, phi.Args[:k]...)
		for range n {
			args = append(args, phi.Args[k])
		}
		phi.Args = append(args, phi.Args[k+1:]...)
	}
}
