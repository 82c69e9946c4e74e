package interp

import (
	"math/rand"
	"testing"

	"safetsa/internal/rt"
)

// parallelMoves applies mv as one parallel assignment: every source is
// read before any destination is written. It is the meaning sequence
// must preserve.
func parallelMoves(regs []rt.Value, mv []Move) {
	vals := make([]rt.Value, len(mv))
	for i, m := range mv {
		vals[i] = regs[m.Src]
	}
	for i, m := range mv {
		regs[m.Dst] = vals[i]
	}
}

// randomMoves is a parallel move set over registers 1..nRegs-1 with
// distinct destinations, as a block's phis give: arbitrary sources, so
// self-moves, fan-out, chains, swaps and cycles all occur; and, one draw
// in four, the sources are a permutation of the destinations, which makes
// the whole set cycles, long ones included.
func randomMoves(r *rand.Rand, nRegs int) []Move {
	n := 1 + r.Intn(nRegs-1)
	dsts := r.Perm(nRegs - 1)[:n]
	mv := make([]Move, n)
	perm := r.Intn(4) == 0
	srcs := r.Perm(n)
	for i, d := range dsts {
		src := int32(1 + r.Intn(nRegs-1))
		if perm {
			src = int32(1 + dsts[srcs[i]])
		}
		mv[i] = Move{Dst: int32(1 + d), Src: src}
	}
	return mv
}

// TestSequenceIsParallel: a sequenced move list, applied one move at a
// time, leaves every register but the scratch register 0 as the parallel
// set would, and costs at most one move per cycle beyond the set's own.
// One pair of count vectors serves every set, so a set that left them
// dirty would mis-sequence the next.
func TestSequenceIsParallel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fixed := [][]Move{
		{{Dst: 1, Src: 1}},
		{{Dst: 1, Src: 2}, {Dst: 2, Src: 1}},
		{{Dst: 1, Src: 2}, {Dst: 2, Src: 3}, {Dst: 3, Src: 1}},
		{{Dst: 1, Src: 2}, {Dst: 2, Src: 1}, {Dst: 3, Src: 4}, {Dst: 4, Src: 3}, {Dst: 5, Src: 1}},
		{{Dst: 2, Src: 1}, {Dst: 3, Src: 1}, {Dst: 1, Src: 3}},
		{{Dst: 2, Src: 1}, {Dst: 3, Src: 2}, {Dst: 4, Src: 3}, {Dst: 5, Src: 4}},
		{{Dst: 3, Src: 3}, {Dst: 2, Src: 3}, {Dst: 1, Src: 2}, {Dst: 4, Src: 1}, {Dst: 5, Src: 5}},
	}
	reads, writer := make([]int32, 64), make([]int32, 64)
	for i := 0; i < 20000; i++ {
		var par []Move
		if i < len(fixed) {
			par = fixed[i]
		} else {
			par = randomMoves(r, 2+r.Intn(48))
		}
		nRegs := int32(1)
		for _, m := range par {
			nRegs = max(nRegs, m.Dst+1, m.Src+1)
		}
		want := make([]rt.Value, nRegs)
		for j := range want {
			want[j] = rt.IntValue(int32(100 + j))
		}
		got := append([]rt.Value(nil), want...)
		parallelMoves(want, par)
		seq := sequence(nil, par, reads, writer)
		applyMoves(got, seq)
		for j := int32(1); j < nRegs; j++ {
			if got[j] != want[j] {
				t.Fatalf("%v sequenced as %v: register %d holds %d, the parallel set gives %d", par, seq, j, got[j].I, want[j].I)
			}
		}
		if len(seq) > len(par)+len(par)/2 {
			t.Fatalf("%v sequenced as %d moves", par, len(seq))
		}
	}
}
