package sema

import "safetsa/internal/core"

// Arena is the memory the checker carves a program's locals from, with its
// scope stack (DESIGN.md §5, "who owns producer memory"): a local, a
// method's info and its local vector cost a chunk per ~128, and a block
// scope costs nothing — scopes are one stack of the locals in scope and a
// map from each name to its innermost entry, both reused from method to
// method. The zero Arena never takes memory back; an arena from NewArena
// keeps its chunks so that Rewind can take back the programs checked since
// the last Rewind, after which none of them may be used. An arena checks
// one program at a time.
type Arena struct {
	locals   core.Slab[Local]
	infos    core.Slab[MethodInfo]
	refs     core.Slab[ClassRef]
	localVec core.Slab[*Local]

	// The locals of the method being checked, in creation order.
	made []*Local
	// scope is the locals in scope, outermost first, marks where each
	// open block scope starts in it, and names the innermost entry of
	// each name in scope.
	scope []scoped
	marks []int
	names map[string]int32
	// peak is the most names ever in scope at once: names' size, which a
	// map does not give back.
	peak int
}

// scoped is a local in scope: its entry in the scope stack, with the
// entry the same name had in an outer scope (-1 for none) and the depth
// of the scope that holds it.
type scoped struct {
	l     *Local
	prev  int32
	depth int32
}

// NewArena returns an empty arena that keeps its chunks for Rewind.
func NewArena() *Arena {
	a := new(Arena)
	a.locals.Recycle()
	a.infos.Recycle()
	a.refs.Recycle()
	a.localVec.Recycle()
	return a
}

// Rewind takes back the programs checked since the last Rewind (poisoned
// while core.Poisoning, so that a reader that kept a local of a program
// checked before finds it nameless and untyped) and reports the bytes the
// arena keeps.
func (a *Arena) Rewind() int {
	n := a.locals.Rewind() + a.infos.Rewind() + a.refs.Rewind() + a.localVec.Rewind()
	a.dropScratch()
	return n + 8*(cap(a.made)+cap(a.marks)) + 16*cap(a.scope) + 32*a.peak
}

// maxKeptNames bounds the names map an arena keeps for the next program:
// a map keeps the size it once had, and one hostile method must not tax
// every later program.
const maxKeptNames = 1 << 12

func (a *Arena) dropScratch() {
	if a.peak > maxKeptNames {
		a.names, a.peak = nil, 0
	}
	clear(a.made[:cap(a.made)])
	clear(a.scope[:cap(a.scope)])
}
