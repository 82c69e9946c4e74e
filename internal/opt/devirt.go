package opt

import (
	"safetsa/internal/core"
)

// Devirtualization (CHA + RTA): an xdispatch site whose dispatch-table
// slot names the same implementation in every possible receiver class is
// rewritten into a direct xcall. The candidate receiver classes are the
// unit's reflexive subclasses of the static receiver type
// (class-hierarchy analysis — sound because a distribution unit is a
// closed world, see DESIGN.md §10), narrowed to the classes the unit can
// actually instantiate (rapid type analysis).
//
// Two sites are deliberately left virtual:
//
//   - Imported receiver roots. Host classes (String) have
//     host-implemented instances whose dispatch is not described by the
//     unit's tables, so no table-derived target is trustworthy.
//   - A unique target declared on a proper subclass of the static
//     receiver type. The direct call would need the receiver on the
//     subclass's safe-ref plane, and SafeTSA has no way to strengthen a
//     plane without a dynamic check — the rewrite is inexpressible, which
//     is exactly the referential security the paper is after.
//
// Those are the only two shapes: in a verifier-valid module every
// dispatchable method entry owns its declaring body, so a site's owner
// declares the method and every dispatch-table candidate is the owner's
// own implementation or an override below it. A unique target is
// therefore owned by the site's owner (same plane, rewrite directly) or
// by a proper subclass (skip).
func devirtPass() Pass {
	var inst map[core.TypeID]bool
	return Pass{
		Name:  "devirt",
		Start: func(m *core.Module) { inst = m.InstantiatedClasses() },
		Run: func(m *core.Module, f *core.Func, o Options, st *Stats) {
			st.Devirtualized += devirt(m, f, inst)
		},
	}
}

func devirt(m *core.Module, f *core.Func, inst map[core.TypeID]bool) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op != core.OpXDispatch {
				continue
			}
			target := m.MonomorphicTarget(in.Method, inst)
			if target < 0 || int(target) >= len(m.Methods) {
				continue
			}
			if m.Methods[target].Owner != m.Methods[in.Method].Owner {
				// Subclass-declared target: the receiver is on the
				// owner's safe-ref plane and cannot be strengthened.
				continue
			}
			// The instruction object stays in place (its exception
			// edge and handler registration carry over); only the
			// dispatch becomes direct.
			in.Op = core.OpXCall
			in.Method = target
			n++
		}
	}
	return n
}
