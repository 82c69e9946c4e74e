package core

import (
	"errors"
	"fmt"
	"slices"
)

// VerifyOptions tunes verification.
type VerifyOptions struct {
	// AllowMem permits the optimizer-internal memory-state values
	// (OpMem0 and mem-typed phis); the wire format never carries them.
	AllowMem bool
	// Scratch, when not nil, is the memory the position table of each
	// function is built in (Func.PositionsInto), reused from one
	// verification to the next; nil builds each table anew.
	Scratch *Positions
}

// Verify checks the module's structural invariants. Admission says each
// rule once and runs it in one of two schedules: all at once here, or
// function by function as a unit arrives (wire.DecodeVerifiedStream).
// Both are "VerifyTables, then Admission.Admit for every function index"
// — there is no second spelling for the two to disagree about.
//
// Per function, Admit checks type separation (each operand lives on
// exactly the plane Module.Signature implies for its opcode),
// referential integrity (every operand's definition structurally
// dominates its use), phi/edge consistency and safe-index binding. For
// a module the wire decoder produced, the typing half holds by
// construction — the decoder reads its operands through the same
// Signature — and only the structural half is an independent check; for
// ssabuild and opt output, which build instructions by hand, all of it
// is.
func (m *Module) Verify(opts VerifyOptions) error {
	adm, err := m.VerifyTables(len(m.Funcs))
	if err != nil {
		return err
	}
	var errs []error
	for j, f := range m.Funcs {
		if err := adm.Admit(j, f, opts); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Admission is a module whose symbol tables passed VerifyTables, ready
// to admit its function bodies one index at a time.
type Admission struct {
	m *Module
	// claims holds what the tables say of each function index they name:
	// the method whose body it is, or -1-k for class definition k's static
	// initializer.
	claims map[int32]int32
}

// Claim reports what the tables say function j is: the body of method
// (>= 0), or the static initializer of class definition class (method <
// 0). ok is false for an index no table entry names.
func (a *Admission) Claim(j int) (method int32, class int, ok bool) {
	c, ok := a.claims[int32(j)]
	if !ok || c >= 0 {
		return c, -1, ok
	}
	return -1, int(-1 - c), true
}

// Link checks function j against the claim the tables make about index
// j: the body of a method carries that method, its signature (the
// receiver's safe-ref unless static, the method's parameters, its
// result) and its name, Owner.Name; class k's static initializer carries
// no method, no parameters, a void result and the name
// Class.<clinit>. So no body can be dispatched under another method's
// signature, and a body decoded from its claim alone (the wire does not
// spell any of this) is the body the producer built. A function no table
// entry points at may name any method; nothing can reach it, and the wire
// cannot carry it.
func (a *Admission) Link(j int, f *Func) error {
	method, class, claimed := a.Claim(j)
	if !claimed {
		return nil
	}
	owner, member := a.m.ClaimedName(method, class)
	if method < 0 {
		if f.Method >= 0 || !a.m.HasClaimedSignature(f, nil) {
			return fmt.Errorf("function %d (%s): static initializer has a signature", j, f.Name)
		}
		if !qualified(f.Name, owner, member) {
			return fmt.Errorf("function %d (%s): static initializer of %s has another name", j, f.Name, owner)
		}
		return nil
	}
	mr := &a.m.Methods[method]
	switch {
	case f.Method != method:
		return fmt.Errorf("function %d (%s): body of method %d (%s) names method %d",
			j, f.Name, method, mr.Name, f.Method)
	case !a.m.HasClaimedSignature(f, mr):
		return fmt.Errorf("function %d (%s): body of method %d (%s) has another signature", j, f.Name, method, mr.Name)
	case !qualified(f.Name, owner, member):
		return fmt.Errorf("function %d (%s): body of method %d (%s) has another name", j, f.Name, method, mr.Name)
	}
	return nil
}

// ClaimedName is the name a claimed body carries, owner + "." + member:
// Owner.Name for the body of method (>= 0), Class.<clinit> for the static
// initializer of class definition class.
func (m *Module) ClaimedName(method int32, class int) (owner, member string) {
	if method < 0 {
		return m.Types.Describe(m.Classes[class].Type), "<clinit>"
	}
	mr := &m.Methods[method]
	return m.Types.Describe(mr.Owner), mr.Name
}

// HasClaimedSignature reports whether f's parameters and result are the
// ones its claim implies: for the body of method mr, the receiver's
// safe-ref (unless mr is static), mr's parameters and mr's result; for a
// static initializer (mr nil), none and void.
func (m *Module) HasClaimedSignature(f *Func, mr *MethodRef) bool {
	if mr == nil {
		return len(f.Params) == 0 && f.Result == m.Types.Void
	}
	ps := f.Params
	if !mr.Static {
		if len(ps) == 0 {
			return false
		}
		if r := m.Types.Get(ps[0]); r == nil || r.Kind != TSafeRef || r.Base != mr.Owner {
			return false
		}
		ps = ps[1:]
	}
	return f.Result == mr.Result && slices.Equal(ps, mr.Params)
}

// qualified reports whether name is owner + "." + member.
func qualified(name, owner, member string) bool {
	return len(name) == len(owner)+1+len(member) && name[:len(owner)] == owner &&
		name[len(owner)] == '.' && name[len(owner)+1:] == member
}

// Admit is the per-function admission rule: Link, then Body. It depends
// only on the verified tables and on f, which is why a function admitted
// while the rest of its unit is still in flight is exactly as trustworthy
// as one admitted by Verify.
func (a *Admission) Admit(j int, f *Func, opts VerifyOptions) error {
	if err := a.Link(j, f); err != nil {
		return err
	}
	return a.Body(j, f, opts)
}

// Body is Admit without Link: the body checks alone, for a function whose
// link holds by construction — a decoded body takes its method, signature
// and name from its claim (wire's decoder), so Link has nothing left to
// reject there.
func (a *Admission) Body(j int, f *Func, opts VerifyOptions) error {
	if err := a.m.verifyFunc(f, opts); err != nil {
		return fmt.Errorf("function %d (%s): %w", j, f.Name, err)
	}
	return nil
}

// VerifyTables checks the linking consistency of the symbol tables
// before any function body is looked at: field slots within their
// class's storage, dispatch tables that agree with the superclass
// layout, every method with a body or a host implementation, one
// static-initializer entry per class definition, and body and
// static-initializer indices inside the nFuncs bodies the unit declares,
// no index claimed twice. These are the "safe
// linking" conditions of section 4 — the paper's residual "trivial
// counter comparisons" — and the precondition of every per-function
// rule.
func (m *Module) VerifyTables(nFuncs int) (*Admission, error) {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	claims := make(map[int32]int32, len(m.Methods))
	// claim records that function fi is what c says (Admission.claims); it
	// answers why it cannot be, or "". An index has one claimant: two
	// methods, or two classes' static initializers, cannot share a body.
	claim := func(fi, c int32) string {
		if int(fi) >= nFuncs {
			return "out of range"
		}
		if _, dup := claims[fi]; dup {
			return "already claimed for another role"
		}
		claims[fi] = c
		return ""
	}

	defByType := make(map[TypeID]*ClassDef)
	for i, cd := range m.Classes {
		t := m.Types.Get(cd.Type)
		if t == nil || t.Kind != TClass {
			bad("class def %d: not a class type", i)
			continue
		}
		if t.Imported {
			bad("class def %d redefines imported class %s", i, t.Name)
			continue
		}
		if defByType[cd.Type] != nil {
			bad("class %s defined twice", t.Name)
			continue
		}
		defByType[cd.Type] = cd
		if cd.Super != t.Super {
			bad("class %s: definition and type table disagree on the superclass", t.Name)
		}
	}

	// NumSlots of an arbitrary (possibly imported) class type.
	slotsOf := func(t TypeID) (int32, bool) {
		if cd := defByType[t]; cd != nil {
			return cd.NumSlots, true
		}
		tt := m.Types.Get(t)
		if tt == nil || !tt.Imported || tt.Kind != TClass {
			return 0, false
		}
		if m.Types.IsSubclass(t, m.Types.Throwable) {
			return 1, true
		}
		return 0, true
	}
	vtableOf := func(t TypeID) []int32 {
		if cd := defByType[t]; cd != nil {
			return cd.VTable
		}
		return nil
	}

	for _, cd := range m.Classes {
		t := m.Types.Get(cd.Type)
		if t == nil || defByType[cd.Type] != cd {
			continue
		}
		superSlots, ok := slotsOf(cd.Super)
		if !ok {
			bad("class %s: invalid superclass", t.Name)
			continue
		}
		if cd.NumSlots < superSlots {
			bad("class %s: fewer instance slots than its superclass", t.Name)
		}
		superVT := vtableOf(cd.Super)
		if len(cd.VTable) < len(superVT) {
			bad("class %s: dispatch table shorter than its superclass's", t.Name)
			continue
		}
		for j, mi := range cd.VTable {
			if int(mi) < 0 || int(mi) >= len(m.Methods) {
				bad("class %s: dispatch slot %d out of method table", t.Name, j)
				continue
			}
			tm := &m.Methods[mi]
			if tm.Static || tm.IsCtor || tm.VSlot != int32(j) {
				bad("class %s: dispatch slot %d holds an incompatible method", t.Name, j)
				continue
			}
			if !m.Types.IsSubclass(cd.Type, tm.Owner) {
				bad("class %s: dispatch slot %d owned by a non-superclass", t.Name, j)
			}
			if j < len(superVT) {
				sm := &m.Methods[superVT[j]]
				if !sameMethodShape(sm, tm) {
					bad("class %s: dispatch slot %d changes the inherited signature", t.Name, j)
				}
			}
		}
	}

	for i, fr := range m.Fields {
		if m.Types.Get(fr.Type) == nil {
			bad("field %d (%s): bad type reference", i, fr.Name)
			continue
		}
		cd := defByType[fr.Owner]
		if cd == nil {
			bad("field %d (%s): owner is not a class of this unit", i, fr.Name)
			continue
		}
		if fr.Slot < 0 {
			bad("field %d (%s): negative slot", i, fr.Name)
			continue
		}
		if fr.Static && fr.Slot >= cd.NumStatics {
			bad("field %d (%s): static slot outside the owner's storage", i, fr.Name)
		}
		if !fr.Static && fr.Slot >= cd.NumSlots {
			bad("field %d (%s): instance slot outside the owner's storage", i, fr.Name)
		}
	}

	for i, mr := range m.Methods {
		if m.Types.Get(mr.Owner) == nil {
			bad("method %d (%s): bad owner", i, mr.Name)
			continue
		}
		if mr.Result != NoType && m.Types.Get(mr.Result) == nil {
			bad("method %d (%s): bad result type", i, mr.Name)
		}
		for _, p := range mr.Params {
			if m.Types.Get(p) == nil {
				bad("method %d (%s): bad parameter type", i, mr.Name)
			}
		}
		switch {
		case mr.FuncIdx >= 0:
			if why := claim(mr.FuncIdx, int32(i)); why != "" {
				bad("method %d (%s): body index %d %s", i, mr.Name, mr.FuncIdx, why)
			}
		case mr.IsCtor:
			// Imported constructors: the no-arg Object/Throwable forms
			// and the Throwable(String) form.
			ot := m.Types.Get(mr.Owner)
			if ot == nil || !ot.Imported {
				bad("method %d (%s): constructor of a unit class without a body", i, mr.Name)
			} else if len(mr.Params) > 1 ||
				(len(mr.Params) == 1 &&
					(mr.Params[0] != m.Types.String || !m.Types.IsSubclass(mr.Owner, m.Types.Throwable))) {
				bad("method %d (%s): no such imported constructor", i, mr.Name)
			}
		case mr.Builtin == 0:
			bad("method %d (%s): no body and no host implementation", i, mr.Name)
		}
	}

	if m.Entry >= 0 {
		if int(m.Entry) >= len(m.Methods) {
			bad("entry method out of range")
		} else if !m.Methods[m.Entry].Static {
			bad("entry method is not static")
		}
	}
	if len(m.StaticInit) != len(m.Classes) {
		bad("%d static-initializer entries for %d class definitions", len(m.StaticInit), len(m.Classes))
	}
	for i, si := range m.StaticInit {
		if si < 0 {
			continue
		}
		if why := claim(si, int32(-1-i)); why != "" {
			bad("static initializer %d: function index %d %s", i, si, why)
		}
	}
	if errs != nil {
		return nil, errors.Join(errs...)
	}
	return &Admission{m: m, claims: claims}, nil
}

func sameMethodShape(a, b *MethodRef) bool {
	if a.Result != b.Result || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// Positions is the one table of intra-block positions: phis all share
// position 0 (they execute in parallel on block entry), code starts at 1.
// It is dense in both ways it is asked — by value, and by incoming edge —
// and valid for a function as Finish left it.
type Positions struct {
	val   []int32 // by ValueID; -1 when no block holds the defining instruction
	first []int32 // by Block.Index: where the block's incoming edges start in limit
	limit []int32 // by edge: the position of its throwing site, -1 for a normal edge
}

// PositionsInto builds the table in p's memory, when it is long enough.
// An exception edge whose site no block holds (or that HandlerOf/ExcEdge
// do not name) keeps position 0: nothing of its source block is in scope
// on it.
func (f *Func) PositionsInto(p *Positions) {
	nv, nb, ne := len(f.values), len(f.Blocks), 0
	for _, b := range f.Blocks {
		ne += len(b.Preds)
	}
	tab := p.val[:0:cap(p.val)] // val leads the one table
	if cap(tab) < nv+nb+ne {
		tab = make([]int32, nv+nb+ne)
	} else {
		tab = tab[:nv+nb+ne]
		clear(tab)
	}
	*p = Positions{val: tab[:nv], first: tab[nv : nv+nb], limit: tab[nv+nb:]}
	for i := range p.val {
		p.val[i] = -1
	}
	ne = 0
	for i, b := range f.Blocks {
		p.first[i] = int32(ne)
		for _, e := range b.Preds {
			if e.Site == nil {
				p.limit[ne] = -1
			}
			ne++
		}
	}
	place := func(b *Block, in *Instr, at int32) {
		if f.Value(in.ID) == in {
			p.val[in.ID] = at
		}
		h := f.HandlerOf[in]
		if h == nil || uint(h.Index) >= uint(nb) || f.Blocks[h.Index] != h {
			return
		}
		if k := f.ExcEdge[in]; uint(k) < uint(len(h.Preds)) && h.Preds[k] == (Pred{From: b, Site: in}) {
			p.limit[int(p.first[h.Index])+k] = at
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			place(b, in, 0)
		}
		for i, in := range b.Code {
			place(b, in, int32(i+1))
		}
	}
}

// Cap is how many entries p's memory holds (PositionsInto reuses it).
func (p Positions) Cap() int { return cap(p.val) }

// Of returns the position of the instruction defining v, and whether that
// instruction is in the instruction stream at all.
func (p Positions) Of(v ValueID) (int, bool) {
	at := p.val[v]
	return int(at), at >= 0
}

// Limit returns how far into its source block edge k of b can see: the
// position of the edge's throwing site, or -1 (the whole block) for a
// normal edge.
func (p Positions) Limit(b *Block, k int) int { return p.limitAt(b.Index, k) }

// limitAt is Limit for the block at index bi of Func.Blocks.
func (p Positions) limitAt(bi, k int) int { return int(p.limit[int(p.first[bi])+k]) }

func (m *Module) verifyFunc(f *Func, opts VerifyOptions) error {
	tt := m.Types
	pos := opts.Scratch
	if pos == nil {
		pos = new(Positions)
	}
	f.PositionsInto(pos)

	// available reports whether value v may be used by instruction user
	// (at position userPos in block userBlk). A definition that has been
	// unlinked from the instruction stream (a stale values-table entry —
	// the signature of a broken optimization pass) is as unavailable as
	// one that never existed.
	available := func(v ValueID, userBlk *Block, userPos int) error {
		def := f.Value(v)
		if def == nil {
			return fmt.Errorf("use of undefined value v%d", v)
		}
		defPos, present := pos.Of(v)
		if !present {
			return fmt.Errorf("v%d was removed from the instruction stream but is still used", v)
		}
		if def.Blk == userBlk {
			if defPos >= userPos {
				return fmt.Errorf("v%d used before its definition in block %d", v, userBlk.Index)
			}
			return nil
		}
		if !def.Blk.Dominates(userBlk) {
			return fmt.Errorf("v%d (block %d) does not dominate use in block %d",
				v, def.Blk.Index, userBlk.Index)
		}
		return nil
	}

	// availableOnEdge checks a phi operand: it must be defined at the
	// edge's source point (end of block for normal edges, before the
	// throwing site — limit — for exception edges).
	availableOnEdge := func(v ValueID, e Pred, limit int) error {
		def := f.Value(v)
		if def == nil {
			return fmt.Errorf("phi uses undefined value v%d", v)
		}
		defPos, present := pos.Of(v)
		if !present {
			return fmt.Errorf("phi operand v%d was removed from the instruction stream but is still used", v)
		}
		if def.Blk == e.From {
			if limit >= 0 && defPos >= limit {
				return fmt.Errorf("phi operand v%d defined after exception site in block %d",
					v, e.From.Index)
			}
			return nil
		}
		if !def.Blk.Dominates(e.From) {
			return fmt.Errorf("phi operand v%d (block %d) does not dominate edge source %d",
				v, def.Blk.Index, e.From.Index)
		}
		return nil
	}

	var errs []error
	report := func(b *Block, in *Instr, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("block %d %s: %w", b.Index, in.Op, err))
		}
	}

	for bi, b := range f.Blocks {
		if len(b.Phis) > 0 && len(b.Preds) < 1 {
			errs = append(errs, fmt.Errorf("block %d has phis but no predecessors", b.Index))
		}
		for _, in := range b.Phis {
			if in.Op != OpPhi {
				errs = append(errs, fmt.Errorf("block %d: non-phi in phi section", b.Index))
				continue
			}
			if len(in.Args) != len(b.Preds) {
				report(b, in, fmt.Errorf("arity %d != %d predecessors", len(in.Args), len(b.Preds)))
				continue
			}
			if in.Type == tt.Mem {
				if !opts.AllowMem {
					report(b, in, fmt.Errorf("memory-state phi outside optimization"))
				}
				continue
			}
			want := in.Plane()
			for k, a := range in.Args {
				if err := availableOnEdge(a, b.Preds[k], pos.limitAt(bi, k)); err != nil {
					report(b, in, err)
					continue
				}
				if err := m.wantPlane(f, a, want); err != nil {
					report(b, in, fmt.Errorf("operand %d: %w", k, err))
				}
			}
			// Safe-index phis stay on one plane only if the binding
			// array value dominates the block (Appendix A).
			if in.Bind != NoValue {
				if err := available(in.Bind, b, 0); err != nil {
					report(b, in, fmt.Errorf("safe-index binding: %w", err))
				}
			}
		}
		for i, in := range b.Code {
			userPos := i + 1
			for _, a := range in.Args {
				if a == NoValue {
					report(b, in, fmt.Errorf("missing operand"))
					continue
				}
				if err := available(a, b, userPos); err != nil {
					report(b, in, err)
				}
			}
			report(b, in, m.verifyInstrTyping(f, in, opts))
		}
	}

	// CST-referenced values must be available at their reference block.
	var walkCST func(n *CSTNode)
	walkCST = func(n *CSTNode) {
		if n == nil {
			return
		}
		// A missing condition or thrown value (NoValue) is not a typing
		// error here: such a node has no wire spelling, so the encoder
		// refuses it.
		slot, want, err := m.RefPlane(f, n)
		switch {
		case err != nil:
			errs = append(errs, err)
		case slot == nil || *slot == NoValue:
		case n.At == nil:
			errs = append(errs, fmt.Errorf("%s node without reference block", n.Kind))
		default:
			err := available(*slot, n.At, len(n.At.Code)+1)
			if err == nil {
				err = m.wantPlane(f, *slot, want)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s reference: %w", n.Kind, err))
			}
		}
		for _, k := range n.Kids {
			walkCST(k)
		}
	}
	walkCST(f.Body)

	return errors.Join(errs...)
}

func describePlane(tt *TypeTable, k PlaneKey) string {
	s := tt.Describe(k.Type)
	if k.Bind != NoValue {
		s += fmt.Sprintf("@v%d", k.Bind)
	}
	return s
}

// wantPlane is type separation for one reference: v must be defined on
// the plane the rule implies for it.
func (m *Module) wantPlane(f *Func, v ValueID, want PlaneKey) error {
	def := f.Value(v)
	if def == nil {
		return fmt.Errorf("undefined value v%d", v)
	}
	if got := def.Plane(); got != want {
		return fmt.Errorf("v%d on plane %s, want %s",
			v, describePlane(m.Types, got), describePlane(m.Types, want))
	}
	return nil
}

// verifyInstrTyping checks type separation for one code-section
// instruction against the signature its opcode implies: arity, each
// operand's plane, the result plane, and indexcheck's binding.
func (m *Module) verifyInstrTyping(f *Func, in *Instr, opts VerifyOptions) error {
	tt := m.Types
	sig, err := m.Signature(f, in)
	if in.Op == OpMem0 && opts.AllowMem {
		sig, err = Signature{Result: tt.Mem}, nil
	}
	if err != nil {
		return err
	}
	if n := sig.NumOperands(); len(in.Args) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
	}
	for i, a := range in.Args {
		if err := m.wantPlane(f, a, sig.Operand(i, in.Args[0])); err != nil {
			return fmt.Errorf("operand %d: %w", i, err)
		}
	}
	if in.Type != sig.Result {
		return fmt.Errorf("result plane %s, want %s", tt.Describe(in.Type), tt.Describe(sig.Result))
	}
	if sig.BindResult && in.Bind != in.Args[0] {
		return fmt.Errorf("safe-index result must bind to the checked array value")
	}
	return nil
}
