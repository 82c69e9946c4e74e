// Package ssabuild translates the checked TJ program (the UAST) into a
// SafeTSA module. The translation is a single pass over the structured
// tree in the style of Brandis and Mössenböck [6 in the paper]: the
// Control Structure Tree, the basic blocks, the structural dominator
// links, and the SSA value numbering are all produced together. Phi
// placement is pessimistic at loop headers and exception handlers (the
// single-pass compromise); the producer-side optimizer prunes the
// superfluous ones, as in section 7.
package ssabuild

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/sema"
)

// Builder accumulates the module-level translation state.
type Builder struct {
	prog *sema.Program
	mod  *core.Module

	classType map[*sema.Class]core.TypeID
	fieldIdx  map[*sema.FieldSym]int32
	methodIdx map[*sema.MethodSym]int32
	// printIdx caches synthetic imported-method entries for the
	// System.out builtins, keyed by BuiltinID.
	printIdx map[core.BuiltinID]int32

	*slabs
}

// slabs is the memory a build carves from (DESIGN.md §5, "who owns
// producer memory"): the module's instructions, operand vectors, blocks
// with their code, phi and edge lists, tree nodes and fixed-arity child
// vectors, a chunk per ~128 elements, and the builder's own scratch.
type slabs struct {
	instrs   core.Slab[core.Instr]
	args     core.Slab[core.ValueID]
	instrVec core.Slab[*core.Instr] // Block.Phis, Block.Code
	blocks   core.Slab[core.Block]
	preds    core.Slab[core.Pred]
	nodes    core.Slab[core.CSTNode]
	nodeVec  core.Slab[*core.CSTNode]
	// Builder-owned scratch, unreachable from the module: the version
	// snapshots and assigned-local sets of every function built.
	snaps core.Slab[core.ValueID]
	sets  core.Slab[bool]
}

// Arena is build memory kept from one build to the next. The modules an
// arena built are carved from its chunks, and Rewind takes every one of
// them back: after it, the next build is carved from the same chunks, and
// no module built before it may be used. An arena serves one build at a
// time.
type Arena struct{ slabs }

// NewArena returns an empty arena that keeps its chunks for Rewind.
func NewArena() *Arena {
	a := new(Arena)
	a.instrs.Recycle()
	a.args.Recycle()
	a.instrVec.Recycle()
	a.blocks.Recycle()
	a.preds.Recycle()
	a.nodes.Recycle()
	a.nodeVec.Recycle()
	a.snaps.Recycle()
	a.sets.Recycle()
	return a
}

// Build translates a checked program into a SafeTSA module.
func Build(prog *sema.Program) (*core.Module, error) { return new(Arena).Build(prog) }

// Build is the package-level Build, carving the module from a's chunks.
func (a *Arena) Build(prog *sema.Program) (*core.Module, error) {
	b := &Builder{
		prog:      prog,
		classType: make(map[*sema.Class]core.TypeID),
		fieldIdx:  make(map[*sema.FieldSym]int32),
		methodIdx: make(map[*sema.MethodSym]int32),
		printIdx:  make(map[core.BuiltinID]int32),
		slabs:     &a.slabs,
	}
	b.mod = &core.Module{Types: core.NewTypeTable(), Entry: -1}
	b.buildTables()
	if err := b.buildBodies(); err != nil {
		return nil, err
	}
	orderFuncsForStreaming(b.mod)
	return b.mod, nil
}

// Rewind takes back everything the builds since the last Rewind carved
// (poisoned while core.Poisoning, so that a reader that kept a pointer
// into a module built before reads junk) and reports the bytes of the
// chunks the arena keeps.
func (a *Arena) Rewind() int {
	return a.instrs.Rewind() + a.args.Rewind() + a.instrVec.Rewind() + a.blocks.Rewind() +
		a.preds.Rewind() + a.nodes.Rewind() + a.nodeVec.Rewind() + a.snaps.Rewind() + a.sets.Rewind()
}

// orderFuncsForStreaming permutes the function list so that a consumer
// that decodes bodies as its guest first calls them decodes as little as
// it can. Everything needed to begin execution — the static
// initializers, then the entry method's body — leads the unit, so a
// streaming decoder (wire.DecodeVerifiedStream) can start main after
// admitting a short prefix. Then come the other bodies reachable from
// those roots through the call graph (Module.CallGraph: direct calls,
// and every implementation a dispatch can select), in index order, and
// last the bodies no guest can call. A consumer that pulls bodies on
// first call — a streamed unit, or a resident one its loader holds as a
// cursor — stops at the highest body its guest calls, so the tail is
// never decoded. Method body links and the static-initializer table are
// rewritten to match; the permutation is semantics-free and survives
// verification unchanged.
func orderFuncsForStreaming(m *core.Module) {
	n := len(m.Funcs)
	if n == 0 {
		return
	}
	cg := m.CallGraph()
	reach := make(map[*core.Func]bool, n)
	var stack []*core.Func
	mark := func(f *core.Func) {
		if f != nil && !reach[f] {
			reach[f] = true
			stack = append(stack, f)
		}
	}
	for _, si := range m.StaticInit {
		if si >= 0 {
			mark(m.Funcs[si])
		}
	}
	if m.Entry >= 0 {
		mark(m.FuncOf(m.Entry))
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range cg[f] {
			mark(g)
		}
	}

	perm := make([]int32, n) // old index -> new index
	taken := make([]bool, n)
	order := make([]*core.Func, 0, n)
	take := func(i int32) {
		if i < 0 || int(i) >= n || taken[i] {
			return
		}
		taken[i] = true
		perm[i] = int32(len(order))
		order = append(order, m.Funcs[i])
	}
	for _, si := range m.StaticInit {
		take(si)
	}
	if m.Entry >= 0 {
		take(m.Methods[m.Entry].FuncIdx)
	}
	for i, f := range m.Funcs {
		if reach[f] {
			take(int32(i))
		}
	}
	for i := 0; i < n; i++ {
		take(int32(i))
	}
	m.Funcs = order
	for i := range m.Methods {
		if m.Methods[i].FuncIdx >= 0 {
			m.Methods[i].FuncIdx = perm[m.Methods[i].FuncIdx]
		}
	}
	for i, si := range m.StaticInit {
		if si >= 0 {
			m.StaticInit[i] = perm[si]
		}
	}
}

// typeOf maps a sema type to the module type table.
func (b *Builder) typeOf(t *sema.Type) core.TypeID {
	tt := b.mod.Types
	switch t.Kind {
	case sema.KindInt:
		return tt.Int
	case sema.KindLong:
		return tt.Long
	case sema.KindDouble:
		return tt.Double
	case sema.KindBoolean:
		return tt.Boolean
	case sema.KindChar:
		return tt.Char
	case sema.KindVoid:
		return tt.Void
	case sema.KindNull:
		return tt.Object
	case sema.KindClass:
		return b.classID(t.Class)
	case sema.KindArray:
		return tt.ArrayOf(b.typeOf(t.Elem))
	}
	panic("ssabuild: unhandled sema type")
}

func (b *Builder) classID(c *sema.Class) core.TypeID {
	if id, ok := b.classType[c]; ok {
		return id
	}
	tt := b.mod.Types
	if c.Imported {
		id := tt.Class(c.Name)
		if id == core.NoType {
			panic("ssabuild: imported class missing from implicit type table: " + c.Name)
		}
		b.classType[c] = id
		return id
	}
	// Ensure the superclass exists first so Super links are valid.
	superID := b.classID(c.Super)
	id := tt.AddClass(c.Name, superID)
	b.classType[c] = id
	return id
}

// fieldRef interns a field-table entry.
func (b *Builder) fieldRef(f *sema.FieldSym) int32 {
	if i, ok := b.fieldIdx[f]; ok {
		return i
	}
	i := int32(len(b.mod.Fields))
	b.mod.Fields = append(b.mod.Fields, core.FieldRef{
		Owner:  b.classID(f.Owner),
		Name:   f.Name,
		Type:   b.typeOf(f.Type),
		Static: f.Static,
		Slot:   int32(f.Slot),
	})
	b.fieldIdx[f] = i
	return i
}

// methodRef interns a method-table entry.
func (b *Builder) methodRef(m *sema.MethodSym) int32 {
	if i, ok := b.methodIdx[m]; ok {
		return i
	}
	params := make([]core.TypeID, len(m.Params))
	for j, p := range m.Params {
		params[j] = b.typeOf(p)
	}
	i := int32(len(b.mod.Methods))
	b.mod.Methods = append(b.mod.Methods, core.MethodRef{
		Owner:   b.classID(m.Owner),
		Name:    m.Name,
		Params:  params,
		Result:  b.typeOf(m.Return),
		Static:  m.Static,
		IsCtor:  m.IsCtor,
		VSlot:   int32(m.VSlot),
		Builtin: m.Builtin,
		FuncIdx: -1,
	})
	b.methodIdx[m] = i
	return i
}

// printRef interns the imported static method of a System.out builtin:
// the host library's entry for it (core.HostMethodOf), which the consumer
// binds the method by.
func (b *Builder) printRef(bi *sema.Builtin) int32 {
	if i, ok := b.printIdx[bi.ID]; ok {
		return i
	}
	h := core.HostMethodOf(bi.ID)
	i := int32(len(b.mod.Methods))
	b.mod.Methods = append(b.mod.Methods, core.MethodRef{
		Owner:   h.Owner,
		Name:    h.Name,
		Params:  append([]core.TypeID(nil), h.Params...),
		Result:  h.Result,
		Static:  true,
		VSlot:   -1,
		Builtin: h.Builtin,
		FuncIdx: -1,
	})
	b.printIdx[bi.ID] = i
	return i
}

// buildTables populates the type table and per-class definitions.
func (b *Builder) buildTables() {
	for _, c := range b.prog.UserClasses() {
		b.classID(c)
	}
	for _, c := range b.prog.UserClasses() {
		cd := &core.ClassDef{
			Type:       b.classID(c),
			Super:      b.classID(c.Super),
			NumSlots:   int32(c.NumSlots),
			NumStatics: int32(c.NumStatics),
		}
		for _, f := range c.Fields {
			cd.Fields = append(cd.Fields, b.fieldRef(f))
		}
		for _, m := range c.Ctors {
			cd.Methods = append(cd.Methods, b.methodRef(m))
		}
		for _, m := range c.Methods {
			cd.Methods = append(cd.Methods, b.methodRef(m))
		}
		for _, m := range c.VTable {
			cd.VTable = append(cd.VTable, b.methodRef(m))
		}
		b.mod.Classes = append(b.mod.Classes, cd)
	}
}

// buildBodies translates every user method body, the synthetic static
// initializers, and locates the entry point.
func (b *Builder) buildBodies() error {
	for k, c := range b.prog.UserClasses() {
		// Static initializer.
		var staticInits []*sema.FieldSym
		for _, f := range c.Fields {
			if f.Static && f.Init != nil {
				staticInits = append(staticInits, f)
			}
		}
		si := int32(-1)
		if len(staticInits) > 0 {
			f, err := b.buildClinit(k, staticInits)
			if err != nil {
				return err
			}
			si = int32(len(b.mod.Funcs))
			b.mod.Funcs = append(b.mod.Funcs, f)
		}
		b.mod.StaticInit = append(b.mod.StaticInit, si)

		for _, m := range c.Ctors {
			if err := b.buildMethod(m); err != nil {
				return err
			}
		}
		for _, m := range c.Methods {
			if err := b.buildMethod(m); err != nil {
				return err
			}
			if m.Name == "main" && m.Static && len(m.Params) <= 1 {
				ok := len(m.Params) == 0
				if len(m.Params) == 1 {
					p := m.Params[0]
					ok = p.Kind == sema.KindArray && p.Elem == b.prog.String
				}
				if ok && b.mod.Entry < 0 {
					b.mod.Entry = b.methodIdx[m]
				}
			}
		}
	}
	return nil
}

func (b *Builder) buildMethod(m *sema.MethodSym) error {
	fb := newFnBuilder(b, m)
	if err := fb.build(); err != nil {
		return fmt.Errorf("%s: %w", m.Sig(), err)
	}
	b.mod.Methods[fb.f.Claim].FuncIdx = int32(len(b.mod.Funcs))
	b.mod.Funcs = append(b.mod.Funcs, fb.f)
	return nil
}

// buildClinit builds the synthetic static initializer of class
// definition k.
func (b *Builder) buildClinit(k int, fields []*sema.FieldSym) (*core.Func, error) {
	fb := newFnBuilderRaw(b, int32(-1-k), &sema.MethodInfo{})
	seq := []*core.CSTNode{fb.leaf(fb.f.Entry)}
	fb.resume(fb.f.Entry, &seq)
	for _, f := range fields {
		v := fb.exprConv(f.Init, f.Type)
		if fb.cur == nil {
			break
		}
		fb.emit(core.Instr{
			Op: core.OpSetField, Type: fb.tt().Void,
			Field: b.fieldRef(f), Args: fb.vals(v),
		})
	}
	if fb.cur != nil {
		seq = append(seq, fb.node(core.CSTNode{Kind: core.CReturn, At: fb.cur}))
	}
	fb.f.Body = fb.seqOf(seq)
	fb.finish()
	if err := b.mod.CheckStructuralDominators(fb.f); err != nil {
		return nil, err
	}
	return fb.f, nil
}

var _ ast.Node // keep the ast import stable while the builder grows
