package core

import (
	"fmt"

	"safetsa/internal/dom"
)

// CheckStructuralDominators validates that the structural dominator tree
// built from the CST is sound with respect to the actual flow graph: the
// structural immediate dominator of every block must be a true dominator
// (computed independently with the iterative algorithm over the recorded
// predecessor edges, exception edges included). Since dominance is
// transitive, this implies every structural ancestor truly dominates, and
// therefore every (l, r) wire reference is referentially secure.
func (m *Module) CheckStructuralDominators(f *Func) error {
	// The flow graph over Block.Index, its edge lists cut from one vector.
	n := len(f.Blocks)
	start := make([]int, n+1)
	for i, b := range f.Blocks {
		if b.Index != i {
			return fmt.Errorf("%s: block %d carries index %d: Finish has not run", m.FuncName(f), i, b.Index)
		}
		start[i+1] = start[i] + len(b.Preds)
	}
	edges := make([]int, start[n])
	for i, b := range f.Blocks {
		for k, p := range b.Preds {
			edges[start[i]+k] = p.From.Index
		}
	}
	entry := f.Entry.Index
	idom := dom.Compute(n, entry, func(v int) []int { return edges[start[v]:start[v+1]] })
	for i, b := range f.Blocks {
		if i == entry {
			continue
		}
		if idom[i] < 0 {
			return fmt.Errorf("%s: block %d unreachable", m.FuncName(f), i)
		}
		// d truly dominates i when it is on i's true dominator chain.
		d := b.IDom.Index
		for x := idom[i]; x != d; x = idom[x] {
			if x == entry {
				return fmt.Errorf("%s: structural idom %d of block %d is not a true dominator",
					m.FuncName(f), d, i)
			}
		}
	}
	return nil
}

// DefBlock returns the block defining value id.
func (f *Func) DefBlock(id ValueID) *Block {
	in := f.Value(id)
	if in == nil {
		return nil
	}
	return in.Blk
}

// PlaneKey identifies a register plane: a type, plus — for safe-index
// planes — the array value the plane is bound to.
type PlaneKey struct {
	Type TypeID
	Bind ValueID
}

// Plane returns the plane key of an instruction's result.
func (in *Instr) Plane() PlaneKey { return PlaneKey{Type: in.Type, Bind: in.Bind} }

// PlaneIndex computes, for every value-producing instruction, its
// register number on its plane within its defining block (registers are
// filled in ascending order, per section 3). The result maps value IDs
// to their per-block per-plane index.
func (f *Func) PlaneIndex() map[ValueID]int {
	out := make(map[ValueID]int, f.NumValues())
	for _, b := range f.Blocks {
		counts := make(map[PlaneKey]int)
		b.Instrs(func(in *Instr) {
			if !in.HasResult() {
				return
			}
			k := in.Plane()
			out[in.ID] = counts[k]
			counts[k]++
		})
	}
	return out
}

// LRRef is the paper's (l, r) value reference: l dominator-tree levels up
// from the referencing block, register r on the implied plane of that
// block.
type LRRef struct {
	L int
	R int
}

// EncodeRef computes the (l, r) pair for using value id from block from;
// planeIdx must come from PlaneIndex. It panics if the definition does
// not dominate the use block — i.e. on referentially insecure IR — so
// the encoder can never externalize an unsafe program.
func (f *Func) EncodeRef(from *Block, id ValueID, planeIdx map[ValueID]int) LRRef {
	def := f.DefBlock(id)
	if def == nil {
		panic(fmt.Sprintf("core: reference to undefined value v%d in the body of claim %d", id, f.Claim))
	}
	l := 0
	for b := from; b != def; b = b.IDom {
		if b == nil {
			panic(fmt.Sprintf("core: value v%d (block %d) does not dominate block %d in the body of claim %d",
				id, def.Index, from.Index, f.Claim))
		}
		l++
	}
	return LRRef{L: l, R: planeIdx[id]}
}
