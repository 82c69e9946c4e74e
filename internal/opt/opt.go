// Package opt implements the producer-side optimizations of section 8 of
// the paper: constant propagation with folding, dominator-scoped common
// subexpression elimination with an artificial memory-state variable
// ("Mem") threading load/store dependencies, and liveness-based dead-code
// elimination that prunes the pessimistically placed phi instructions.
// Null-check and bounds-check elimination fall out of CSE over the check
// instructions — the eliminated checks travel tamper-proof because the
// remaining ones are still structurally verified by the consumer.
//
// Every pass is a substitution or a dead-binding elimination under
// dominator scoping, so the only state one needs is a table indexed by
// the SSA name and a scope that is a contiguous stack. SSA names
// (core.ValueID) and block numbers (core.Block.Index) are dense, so those
// tables are slices sized once per function, never maps keyed by value or
// block; they live in a scratch that the passes of one pipeline value
// share and reuse from function to function (DESIGN.md §5, "who owns
// producer memory").
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
	ExcEdgesPruned int // always 0 (no pass sets it); kept for benchmark/layers.go's row
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
	// xdispatch sites and inlining of small non-recursive callees,
	// followed by a cleanup round. Off by default: the paper's measured
	// configuration is intraprocedural.
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
	// Start, when set, is called at the start of every RunPasses call,
	// before Run sees the module's first function. A pass that reads
	// whole-module facts (devirt's instantiated classes, inline's
	// recursion set) computes them here, for the module at hand, so a
	// pipeline value carries nothing from one run into the next.
	Start func(m *core.Module)
}

// scratch is the side-table memory of one pipeline value: every table a
// pass indexes by ValueID or Block.Index, and every stack it scopes by
// block. A pass sizes and clears what it uses at the start of each
// function, so nothing read here was written for another function;
// sharing it only spares the allocator. It is reachable from the Run
// closures of one Pipeline/ModulePipeline result and from nothing else —
// a pipeline value is therefore run by one goroutine at a time, as the
// module tier's devirt and inline passes already required.
type scratch struct {
	// repl[v] is the value that replaces v, NoValue for none (cse,
	// constprop, inline).
	repl []core.ValueID

	cse cseScratch

	live []bool         // dce: values reached from a root
	work []core.ValueID // dce: reached, operands not yet visited

	// inline: the callee-to-caller value map of the call being expanded,
	// the (call result, inlined result) pairs of the round, and the slabs
	// the clones are carved from.
	vmap   []core.ValueID
	calls  [][2]core.ValueID
	instrs core.Slab[core.Instr]
	args   core.Slab[core.ValueID]
}

// sized returns buf with n zeroed elements, reallocating only to grow.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// The intraprocedural pass bodies, shared by every pipeline variant.
func (sc *scratch) runConstProp(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.ConstFolded += constProp(sc, f)
}

func (sc *scratch) runCSE(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.CSERemoved += cse(sc, f, o)
}

func (sc *scratch) runDCE(m *core.Module, f *core.Func, o Options, st *Stats) {
	st.DCERemoved += dce(sc, f)
}

// Pipeline returns the paper's measured pass sequence. Two
// constprop+CSE rounds (CSE exposes new constants and copies), then one
// liveness DCE that prunes the pessimistically placed phis. The passes of
// one result share side tables: build a pipeline per RunPasses call and
// run it from one goroutine.
func Pipeline() []Pass { return pipeline(new(scratch)) }

func pipeline(sc *scratch) []Pass {
	return []Pass{
		{Name: "constprop", Run: sc.runConstProp},
		{Name: "cse", Run: sc.runCSE},
		{Name: "constprop2", Run: sc.runConstProp},
		{Name: "cse2", Run: sc.runCSE},
		{Name: "dce", Run: sc.runDCE},
	}
}

// ModulePipeline returns the interprocedural tier: the intraprocedural
// pipeline first (smaller callees inline better), then devirtualization
// (turning dispatch sites into inlinable direct calls), inlining, a
// cleanup constprop+CSE round over the merged bodies, and a final DCE
// sweep. Every pass is per-function and leaves the module
// verifier-clean, so oracle.RunPassesVerified can re-check each
// intermediate state.
func ModulePipeline() []Pass { return modulePipeline(new(scratch)) }

func modulePipeline(sc *scratch) []Pass {
	return append(pipeline(sc),
		devirtPass(),
		inlinePass(sc),
		Pass{Name: "constprop3", Run: sc.runConstProp},
		Pass{Name: "cse3", Run: sc.runCSE},
		Pass{Name: "dce2", Run: sc.runDCE},
	)
}

// PipelineFor selects the pass sequence the options ask for.
func PipelineFor(o Options) []Pass {
	if o.ModuleLevel {
		return ModulePipeline()
	}
	return Pipeline()
}

// Arena is a pipeline value kept from one module to the next: the passes
// of both tiers over one scratch, so the side tables of every function
// optimized are the memory of the largest one so far. The inliner carves
// the instructions it clones into a module from the scratch's slabs,
// which an arena recycles: Rewind takes them back, and no module the
// arena optimized may be used after it. An arena runs one module at a
// time. The zero Arena is ready to use.
type Arena struct {
	sc     scratch
	o1, o2 []Pass
}

// PipelineFor is the package-level PipelineFor over the arena's scratch.
func (a *Arena) PipelineFor(o Options) []Pass {
	if a.o1 == nil {
		a.sc.instrs.Recycle()
		a.sc.args.Recycle()
		a.o1, a.o2 = pipeline(&a.sc), modulePipeline(&a.sc)
	}
	if o.ModuleLevel {
		return a.o2
	}
	return a.o1
}

// Rewind takes back every instruction the inliner cloned since the last
// Rewind (poisoned while core.Poisoning) and reports the bytes the arena
// keeps: its slabs' chunks and its side tables at their capacity.
func (a *Arena) Rewind() int {
	sc := &a.sc
	return sc.instrs.Rewind() + sc.args.Rewind() +
		4*(cap(sc.repl)+cap(sc.work)+cap(sc.vmap)+2*cap(sc.calls)) +
		cap(sc.live) + sc.cse.held()
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
		if p.Start != nil {
			p.Start(m)
		}
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
// bindings, and CST value references) through the replacement table
// (indexed by ValueID, NoValue for "keep"), resolving chains.
func replaceUses(f *core.Func, repl []core.ValueID) {
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			replaceOperands(in, repl)
		}
		for _, in := range b.Code {
			replaceOperands(in, repl)
		}
	}
	replaceRefs(f.Body, repl)
}

// resolve follows v's replacement chain to the value that stands for it.
func resolve(repl []core.ValueID, v core.ValueID) core.ValueID {
	for {
		n := repl[v]
		if n == core.NoValue {
			return v
		}
		v = n
	}
}

func replaceOperands(in *core.Instr, repl []core.ValueID) {
	for i, a := range in.Args {
		in.Args[i] = resolve(repl, a)
	}
	if in.Bind != core.NoValue {
		in.Bind = resolve(repl, in.Bind)
	}
}

func replaceRefs(n *core.CSTNode, repl []core.ValueID) {
	if n == nil {
		return
	}
	if n.Cond != core.NoValue {
		n.Cond = resolve(repl, n.Cond)
	}
	if n.Val != core.NoValue {
		n.Val = resolve(repl, n.Val)
	}
	for _, k := range n.Kids {
		replaceRefs(k, repl)
	}
}
