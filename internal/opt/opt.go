// Package opt implements the producer-side optimizations of section 8 of
// the paper: constant propagation with folding, dominator-scoped common
// subexpression elimination with an artificial memory-state variable
// ("Mem") threading load/store dependencies, and liveness-based dead-code
// elimination that prunes the pessimistically placed phi instructions.
// Null-check and bounds-check elimination fall out of CSE over the check
// instructions — the eliminated checks travel tamper-proof because the
// remaining ones are still structurally verified by the consumer.
package opt

import (
	"safetsa/internal/core"
)

// Stats reports what the optimizer did, per category; these feed the
// Figure 6 table and the section 8 claims.
type Stats struct {
	InstrsBefore int
	InstrsAfter  int

	PhisBefore int
	PhisAfter  int

	NullChecksBefore int
	NullChecksAfter  int

	ArrayChecksBefore int
	ArrayChecksAfter  int

	// Per-pass removal counts.
	ConstFolded int
	CSERemoved  int
	DCERemoved  int

	// Interprocedural-tier counts (zero unless Options.ModuleLevel).
	Devirtualized  int // xdispatch sites rewritten to direct xcalls
	Inlined        int // call sites expanded into the caller
	ChecksElided   int // always 0 (no pass sets it); kept for benchmark/layers.go's row
	ExcEdgesPruned int // exception edges of provably-safe sites removed
}

// Count tallies the statistics categories over a module.
func Count(m *core.Module) (instrs, phis, nullChecks, arrayChecks int) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			phis += len(b.Phis)
			instrs += len(b.Phis)
			for _, in := range b.Code {
				instrs++
				switch in.Op {
				case core.OpNullCheck:
					nullChecks++
				case core.OpIndexCheck:
					arrayChecks++
				}
			}
		}
	}
	return
}

// Options selects optimizer variants.
type Options struct {
	// FieldSensitiveMem partitions the artificial Mem variable by field
	// (and by array element type), the "simple form of field analysis"
	// the paper names as the next improvement in section 8. A store to
	// one field then no longer kills loads of any other, exposing more
	// common subexpressions. Off by default: the paper's measured
	// configuration is the single conservative Mem.
	FieldSensitiveMem bool

	// ModuleLevel enables the interprocedural tier on top of the
	// intraprocedural pipeline: CHA/RTA devirtualization of monomorphic
	// xdispatch sites, inlining of small non-recursive callees, and
	// exception-edge pruning of provably safe sites, followed by a
	// cleanup round. Off by default: the paper's measured configuration is
	// intraprocedural.
	ModuleLevel bool
}

// Optimize runs the paper's measured pipeline (single conservative Mem)
// on a module, in place, and returns the statistics.
func Optimize(m *core.Module) Stats {
	return OptimizeWithOptions(m, Options{})
}

// OptimizeWithOptions runs the producer-side pipeline with variant
// selection.
func OptimizeWithOptions(m *core.Module, o Options) Stats {
	st, _ := RunPasses(m, o, PipelineFor(o), nil)
	return st
}

// Pass is one named step of the producer-side pipeline. Run transforms a
// single function in place and accounts its effect in st. Passes must be
// per-function independent: RunPasses applies each pass to every function
// before moving to the next pass, so that a whole-module invariant (in
// particular, the consumer verifier) can be checked between passes.
type Pass struct {
	Name string
	Run  func(m *core.Module, f *core.Func, o Options, st *Stats)
}

// The intraprocedural pass bodies, shared by every pipeline variant.
func runConstProp(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.ConstFolded += constProp(m, f)
}

func runCSE(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.CSERemoved += cse(m, f, o)
}

func runDCE(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.DCERemoved += dce(m, f)
}

// Pipeline returns the paper's measured pass sequence. Two
// constprop+CSE rounds (CSE exposes new constants and copies), then one
// liveness DCE that prunes the pessimistically placed phis.
func Pipeline() []Pass {
	return []Pass{
		{Name: "constprop", Run: runConstProp},
		{Name: "cse", Run: runCSE},
		{Name: "constprop2", Run: runConstProp},
		{Name: "cse2", Run: runCSE},
		{Name: "dce", Run: runDCE},
	}
}

// ModulePipeline returns the interprocedural tier: the intraprocedural
// pipeline first (smaller callees inline better), then devirtualization
// (turning dispatch sites into inlinable direct calls), inlining, a
// cleanup constprop+CSE round over the merged bodies, exception-edge
// pruning (after constprop, which exposes the constants it reasons
// about), and a final DCE sweep. Every pass is per-function and
// leaves the module verifier-clean, so oracle.RunPassesVerified can
// re-check each intermediate state.
func ModulePipeline() []Pass {
	ps := Pipeline()
	return append(ps,
		devirtPass(),
		inlinePass(),
		Pass{Name: "constprop3", Run: runConstProp},
		Pass{Name: "cse3", Run: runCSE},
		checkElimPass(),
		Pass{Name: "dce2", Run: runDCE},
	)
}

// PipelineFor selects the pass sequence the options ask for.
func PipelineFor(o Options) []Pass {
	if o.ModuleLevel {
		return ModulePipeline()
	}
	return Pipeline()
}

// RunPasses applies each pass to every function of the module, calling
// after(pass.Name) once a pass has finished with the whole module. A
// non-nil error from after aborts the pipeline — the module is left in
// its mid-pipeline state for inspection, so callers that care must treat
// the module as scrap on error. after may be nil.
func RunPasses(m *core.Module, o Options, passes []Pass, after func(pass string) error) (Stats, error) {
	var st Stats
	st.InstrsBefore, st.PhisBefore, st.NullChecksBefore, st.ArrayChecksBefore = Count(m)
	for _, p := range passes {
		for _, f := range m.Funcs {
			p.Run(m, f, o, &st)
		}
		if after != nil {
			if err := after(p.Name); err != nil {
				return st, err
			}
		}
	}
	st.InstrsAfter, st.PhisAfter, st.NullChecksAfter, st.ArrayChecksAfter = Count(m)
	return st, nil
}

// replaceUses rewrites every operand (instruction arguments, safe-index
// bindings, and CST value references) through the replacement map,
// resolving chains.
func replaceUses(f *core.Func, repl map[core.ValueID]core.ValueID) {
	if len(repl) == 0 {
		return
	}
	resolve := func(v core.ValueID) core.ValueID {
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
		}
	}
	for _, b := range f.Blocks {
		b.Instrs(func(in *core.Instr) {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
			if in.Bind != core.NoValue {
				in.Bind = resolve(in.Bind)
			}
		})
	}
	var walk func(n *core.CSTNode)
	walk = func(n *core.CSTNode) {
		if n == nil {
			return
		}
		if n.Cond != core.NoValue {
			n.Cond = resolve(n.Cond)
		}
		if n.Val != core.NoValue {
			n.Val = resolve(n.Val)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(f.Body)
}

// removeInstr deletes an instruction from its block (either section).
func removeInstr(in *core.Instr) {
	b := in.Blk
	if in.Op == core.OpPhi {
		for i, p := range b.Phis {
			if p == in {
				b.Phis = append(b.Phis[:i], b.Phis[i+1:]...)
				return
			}
		}
		return
	}
	for i, p := range b.Code {
		if p == in {
			b.Code = append(b.Code[:i], b.Code[i+1:]...)
			return
		}
	}
}
