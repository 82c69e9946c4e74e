package opt

import (
	"safetsa/internal/core"
)

// Exception-edge pruning with range reasoning. A check that provably
// cannot throw — an indexcheck of a constant index into an array
// allocated with a larger constant length, a newarray with a
// non-negative constant length, a division by a non-zero constant, or a
// nullcheck of a value that came off a safe plane — keeps its
// instruction (it is the plane witness the consumer re-verifies) but
// loses its exception edge, shrinking every handler phi and the encoded
// edge set. (The pass elides no checks itself — CSE does that; DESIGN.md
// §10 records why the join-merging half is gone.)
func checkElimPass() Pass {
	return Pass{Name: "checkelim", Run: func(m *core.Module, f *core.Func, o Options, st *Stats) {
		st.ExcEdgesPruned += pruneExcEdges(m, f)
	}}
}

// pruneExcEdges removes the exception edge of every try-covered site
// that provably cannot throw. The instruction itself always stays: it is
// the verifier-checked witness that puts its result on the safe plane.
// Sites are visited in program order so the module that comes out is
// deterministic even when a handler's last-predecessor guard stops the
// pruning partway.
func pruneExcEdges(m *core.Module, f *core.Func) int {
	var sites []*core.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if _, ok := f.ExcEdge[in]; ok {
				sites = append(sites, in)
			}
		}
	}
	n := 0
	for _, site := range sites {
		if !provablyNonThrowing(m, f, site) {
			continue
		}
		if h := f.HandlerOf[site]; h != nil && len(h.Preds) == 1 && len(h.Phis) > 0 {
			continue
		}
		f.RemoveExcSite(site)
		n++
	}
	return n
}

func provablyNonThrowing(m *core.Module, f *core.Func, in *core.Instr) bool {
	constOf := func(v core.ValueID) *core.ConstVal {
		d := f.Value(v)
		if d == nil || d.Op != core.OpConst {
			return nil
		}
		return &d.Const
	}
	switch in.Op {
	case core.OpNewArray:
		c := constOf(in.Args[0])
		return c != nil && c.Kind == core.KInt && c.I >= 0
	case core.OpXPrim:
		switch in.Prim {
		case core.PIDiv, core.PIRem, core.PLDiv, core.PLRem:
			c := constOf(in.Args[1])
			return c != nil && (c.Kind == core.KInt || c.Kind == core.KLong) && c.I != 0
		}
		return false
	case core.OpIndexCheck:
		idx := constOf(in.Args[1])
		if idx == nil || idx.Kind != core.KInt || idx.I < 0 {
			return false
		}
		arr := f.Value(in.Args[0])
		if arr == nil || arr.Op != core.OpNewArray {
			return false
		}
		length := constOf(arr.Args[0])
		return length != nil && length.Kind == core.KInt && idx.I < length.I
	case core.OpNullCheck:
		// A value moved off a safe plane by a downcast is non-null.
		d := f.Value(in.Args[0])
		if d == nil || d.Op != core.OpDowncast {
			return false
		}
		src := m.Types.Get(d.ArgType)
		return src != nil && src.Kind == core.TSafeRef
	}
	return false
}
