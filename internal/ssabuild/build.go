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
	"slices"

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
	if err := orderFuncsForStreaming(b.mod); err != nil {
		return nil, err
	}
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

// orderFuncsForStreaming orders the method table, and with it the bodies,
// so that a consumer that decodes bodies as its guest first calls them
// decodes as little as it can. The body rule (core.Module.PlaceBodies)
// puts the static initializers first and then the unit's methods' bodies
// in method-table order, so the unit's methods go in the order a guest
// can reach them: the entry method, whose body then follows the static
// initializers and lets a streaming decoder (wire.DecodeVerifiedStream)
// start main after admitting a short prefix; then the other methods
// reachable from those roots through the call graph (Module.CallGraph:
// direct calls, and through a dispatched method's node every override a
// dispatch can select), in their order before; then the methods no guest
// can call; and the imported methods last. A consumer that pulls bodies
// on first call — a streamed unit, or a resident one its loader holds as
// a cursor — stops at the highest body its guest calls, so the tail is
// never decoded. The method references of the bodies are rewritten to
// match; the permutation is semantics-free. The call graph reads the
// hierarchy, not the dispatch tables, so the tables are derived once,
// over the ordered table, as every consumer derives them
// (core.Module.DeriveTables).
func orderFuncsForStreaming(m *core.Module) error {
	m.PlaceBodies()
	roots := make([]int32, 0, len(m.StaticInit)+1)
	roots = append(roots, m.StaticInit...)
	if m.Entry >= 0 {
		roots = append(roots, m.Methods[m.Entry].FuncIdx)
	}
	reach := m.CallGraph().Reach(roots...)

	// moved[i] is 1 + method i's index in the ordered table, 0 until it is
	// taken.
	moved := make([]int32, len(m.Methods))
	methods := make([]core.MethodRef, 0, len(m.Methods))
	take := func(c int32) {
		if c >= 0 && moved[c] == 0 {
			methods = append(methods, m.Methods[c])
			moved[c] = int32(len(methods))
		}
	}
	if m.Entry >= 0 {
		take(m.Entry)
	}
	for i, f := range m.Funcs {
		if reach[i] {
			take(f.Claim)
		}
	}
	for _, f := range m.Funcs {
		take(f.Claim)
	}
	for i := range m.Methods {
		take(int32(i))
	}
	m.Methods = methods
	for _, f := range m.Funcs {
		if f.Claim >= 0 {
			f.Claim = moved[f.Claim] - 1
		}
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == core.OpXCall || in.Op == core.OpXDispatch {
					in.Method = moved[in.Method] - 1
				}
			}
		}
	}
	m.PlaceBodies()
	_, err := m.DeriveTables(nil)
	return err
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
		Owner:  b.classID(m.Owner),
		Name:   m.Name,
		Params: params,
		Result: b.typeOf(m.Return),
		Static: m.Static,
		IsCtor: m.IsCtor,
	})
	b.methodIdx[m] = i
	return i
}

// printRef interns the imported static method of a System.out builtin:
// the host library's entry for it (core.HostMethodOf).
func (b *Builder) printRef(bi *sema.Builtin) int32 {
	if i, ok := b.printIdx[bi.ID]; ok {
		return i
	}
	h := core.HostMethodOf(bi.ID)
	i := int32(len(b.mod.Methods))
	b.mod.Methods = append(b.mod.Methods, core.MethodRef{
		Owner:  h.Owner,
		Name:   h.Name,
		Params: append([]core.TypeID(nil), h.Params...),
		Result: h.Result,
		Static: true,
	})
	b.printIdx[bi.ID] = i
	return i
}

// buildTables populates the type table, the class definitions, and the
// field and method tables with every member of the unit's classes and the
// host methods they inherit and do not override. Everything a consumer
// derives of them is derived (core.Module.DeriveTables) once the bodies
// are placed.
func (b *Builder) buildTables() {
	for _, c := range b.prog.UserClasses() {
		b.classID(c)
	}
	for _, c := range b.prog.UserClasses() {
		b.mod.Classes = append(b.mod.Classes, &core.ClassDef{Type: b.classID(c), Super: b.classID(c.Super)})
		for _, f := range c.Fields {
			b.fieldRef(f)
		}
		for _, m := range c.Ctors {
			b.methodRef(m)
		}
		for _, m := range c.Methods {
			b.methodRef(m)
		}
		// A class under a unit class inherits no host method its
		// superclass does not.
		if c.Super.Imported {
			for _, h := range hostTable(c.Super) {
				if !slices.ContainsFunc(c.Methods, func(m *sema.MethodSym) bool { return !m.Static && m.SameSignature(h) }) {
					b.methodRef(h)
				}
			}
		}
	}
}

// hostTable is imported class c's dispatch table: its superclass's, with
// c's overrides in place and its other methods after them.
func hostTable(c *sema.Class) []*sema.MethodSym {
	if c == nil {
		return nil
	}
	vt := hostTable(c.Super)
	for _, m := range c.Methods {
		if i := slices.IndexFunc(vt, func(in *sema.MethodSym) bool { return in.SameSignature(m) }); i >= 0 {
			vt[i] = m
		} else {
			vt = append(vt, m)
		}
	}
	return vt
}

// buildBodies translates every user method body and the synthetic static
// initializers. The body rule places them (core.Module.PlaceBodies), and
// finds the entry method.
func (b *Builder) buildBodies() error {
	for k, c := range b.prog.UserClasses() {
		var staticInits []*sema.FieldSym
		for _, f := range c.Fields {
			if f.Static && f.Init != nil {
				staticInits = append(staticInits, f)
			}
		}
		if len(staticInits) > 0 {
			f, err := b.buildClinit(k, staticInits)
			if err != nil {
				return err
			}
			b.mod.Funcs = append(b.mod.Funcs, f)
		}
		for _, m := range c.Ctors {
			if err := b.buildMethod(m); err != nil {
				return err
			}
		}
		for _, m := range c.Methods {
			if err := b.buildMethod(m); err != nil {
				return err
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
