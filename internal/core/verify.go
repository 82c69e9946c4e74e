package core

import (
	"errors"
	"fmt"
)

// VerifyOptions is empty: Verify takes no options. Callers outside
// internal/ spell it.
type VerifyOptions struct{}

// Verify admits the module's tables (DeriveTables, which installs what
// it derives of them), then each function index (Admission.Admit): the
// module must hold a function for every body the tables place.
// Admission says each rule once (Rules) and drives it in one of two
// ways: here by a walker that works out every fact a rule reads from the
// finished module, or by the wire decoder, which calls each rule as it
// decodes the item (wire.DecodeVerified, the streams) — there is no
// second spelling for the two to disagree about.
//
// Per function, the rules check type separation (each operand lives on
// exactly the plane Module.Signature implies for its opcode),
// referential integrity (every operand's definition structurally
// dominates its use), phi/edge consistency and safe-index binding. For
// a module the wire decoder produced, the typing half holds by
// construction — the decoder reads its operands through the same
// Signature — and only the structural half is an independent check; for
// ssabuild and opt output, which build instructions by hand, all of it
// is.
func (m *Module) Verify(VerifyOptions) error {
	adm, err := m.DeriveTables(nil)
	if err != nil {
		return err
	}
	if len(m.Funcs) < adm.NumFuncs() {
		return fmt.Errorf("%d functions for the %d bodies the tables place", len(m.Funcs), adm.NumFuncs())
	}
	var errs []error
	var pos Positions // one table, rebuilt for each function
	for j, f := range m.Funcs {
		if err := adm.admit(j, f, &pos); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Admission is a module whose symbol tables passed DeriveTables, ready
// to admit its function bodies one index at a time.
type Admission struct {
	m *Module
	// claims holds, by function index, what the body rule makes of it: the
	// method whose body it is, or -1-k for class definition k's static
	// initializer.
	claims []int32
}

// NumFuncs is the number of bodies the tables place.
func (a *Admission) NumFuncs() int { return len(a.claims) }

// Claim reports what the tables say function j is, in the claims'
// encoding (Func.Claim); ok is false for an index the tables place no
// body at.
func (a *Admission) Claim(j int) (claim int32, ok bool) {
	if uint(j) >= uint(len(a.claims)) {
		return 0, false
	}
	return a.claims[j], true
}

// Link checks function j against the claim the tables make about index
// j: a body holds only its claim (Func.Claim), from which its name and
// signature are derived, so the one thing it can get wrong is to claim
// another method or class than the one the body rule places at index j.
// So no body can be dispatched under another method's signature. A
// function past the places of the rule may claim anything; nothing can
// reach it, and the wire cannot carry it.
func (a *Admission) Link(j int, f *Func) error {
	c, claimed := a.Claim(j)
	if !claimed || f.Claim == c {
		return nil
	}
	if c < 0 {
		return fmt.Errorf("function %d (%s): static initializer claims %s", j, a.m.claimedName(c), a.m.claimedName(f.Claim))
	}
	return fmt.Errorf("function %d (%s): body of method %d (%s) names method %d",
		j, a.m.claimedName(c), c, a.m.Methods[c].Name, f.Claim)
}

// Admit is the per-function admission rule: Link, then the body's Rules
// driven by the self-checking walker. It depends only on the verified
// tables and on f, which is why a function admitted while the rest of its
// unit is still in flight is exactly as trustworthy as one admitted by
// Verify.
func (a *Admission) Admit(j int, f *Func) error {
	return a.admit(j, f, new(Positions))
}

// admit is Admit with the walker's position table built in pos.
func (a *Admission) admit(j int, f *Func, pos *Positions) error {
	if err := a.Link(j, f); err != nil {
		return err
	}
	if err := a.m.verifyFunc(f, pos); err != nil {
		return fmt.Errorf("function %d (%s): %w", j, a.m.FuncName(f), err)
	}
	return nil
}

// DeriveTables admits the symbol tables before any function body is
// looked at. It checks their linking consistency: one definition per unit
// class, in type order, agreeing with the type table on its superclass;
// every field owned by a class of the unit; every method owned by a
// class, and an imported constructor one of its class's forms; one
// static-initializer entry per class definition. These are the "safe
// linking" conditions of section 4 — the paper's residual "trivial
// counter comparisons" — and the precondition of every per-function rule.
// Then it installs in m what a consumer derives rather than reads, over
// whatever m carried: the body indices, the static initializers'
// function indices and the entry method the body rule (bodies.go) gives
// the tables, in which StaticInit[k] >= 0 only says that class definition
// k has a static initializer; and the layouts, member lists, dispatch
// tables and native bindings (derive.go), each list kept from keep
// (allocated when keep is nil). The admission's NumFuncs is the number of
// bodies the unit holds. A table whose derivation fails is refused: an
// override that changes its result type, a method with neither a body nor
// a host operation of its signature, or an inherited host method the
// method table does not list.
func (m *Module) DeriveTables(keep *Slab[int32]) (*Admission, error) {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// defByType is indexed by TypeID over the type table, which a decoder
	// has already read: its length is bounded by the bytes read. It holds
	// 1 + the index of the type's class definition, 0 for none. A table of
	// up to 64 types keeps it on the stack.
	var small [64]int32
	defByType := small[:]
	if len(m.Types.ByID) > len(small) {
		defByType = make([]int32, len(m.Types.ByID))
	}
	defIdx := func(t TypeID) int {
		if uint(t) < uint(len(defByType)) {
			return int(defByType[t]) - 1
		}
		return -1
	}
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
		if defByType[cd.Type] != 0 {
			bad("class %s defined twice", t.Name)
			continue
		}
		defByType[cd.Type] = int32(i + 1)
		if cd.Super != t.Super {
			bad("class %s: definition and type table disagree on the superclass", t.Name)
		}
	}
	// Every unit class is defined, in type order: a layout or a dispatch
	// table is derived from the superclass's, which an undefined class
	// would not have, and the class list is the type table's.
	k := 0
	for id := m.Types.ImplicitLen; id < len(m.Types.ByID); id++ {
		t := m.Types.ByID[id]
		if t.Kind != TClass {
			continue
		}
		if defByType[id] == 0 {
			bad("class %s has no definition", t.Name)
		} else if int(defByType[id]) != k+1 {
			bad("class %s is class definition %d, the type table puts it at %d", t.Name, defByType[id]-1, k)
		}
		k++
	}

	for i, fr := range m.Fields {
		if m.Types.Get(fr.Type) == nil {
			bad("field %d (%s): bad type reference", i, fr.Name)
		}
		if defIdx(fr.Owner) < 0 {
			bad("field %d (%s): owner is not a class of this unit", i, fr.Name)
		}
	}

	for i := range m.Methods {
		mr := &m.Methods[i]
		if ot := m.Types.Get(mr.Owner); ot == nil || ot.Kind != TClass {
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
		if m.unitClass(mr.Owner) {
			continue
		}
		mr.FuncIdx = -1 // an imported method has no body
		if mr.IsCtor && ImportedSymbol(mr) < 0 {
			// Imported constructors: the no-argument forms and the
			// Throwable(String) form.
			bad("method %d (%s): no such imported constructor", i, mr.Name)
		}
	}

	// The bodies, where the body rule puts them.
	var claims []int32
	if len(m.StaticInit) != len(m.Classes) {
		bad("%d static-initializer entries for %d class definitions", len(m.StaticInit), len(m.Classes))
	} else if errs == nil {
		n, entry := m.bodyRule(func(int32, int32) {})
		if keep != nil {
			claims = keep.Take(int(n))
		} else {
			claims = make([]int32, n)
		}
		m.bodyRule(func(j, c int32) {
			claims[j] = c
			m.setPlace(c, j)
		})
		m.Entry = entry
	}
	// What is derived is derived only from tables whose references hold.
	if errs == nil {
		var mem derivedMem
		if d := m.derive(&mem, defIdx, bad); errs == nil {
			m.install(&d, keep)
		}
	}
	if errs != nil {
		return nil, errors.Join(errs...)
	}
	return &Admission{m: m, claims: claims}, nil
}

// Positions is the one table of intra-block positions: phis all share
// position 0 (they execute in parallel on block entry), code starts at 1.
// It is dense in both ways it is asked — by value, and by incoming edge.
// PositionsInto fills all of it from a finished body, for Module.Verify's
// walker; a driver that walks a body in transmission order (the wire
// codec, as it fills its register file) places each value as it meets it
// (Reset, Place), and knows each edge's limit itself.
type Positions struct {
	val   []int32 // by ValueID; -1 when no block holds the defining instruction
	first []int32 // by Block.Index: where the block's incoming edges start in limit
	limit []int32 // by edge: the position of its throwing site, -1 for a normal edge
}

// PositionsInto builds the table in p's memory, when it is long enough,
// and places each exception edge at its site (Func.ExcSites). It refuses a
// body whose exception edges are not the ones its CST implies: a site
// inside a try that is not the next edge of its innermost handler, or a
// handler with an edge no site accounts for. An exception edge that no
// site takes keeps position 0: nothing of its source block is in scope on
// it, and Rules.ExcEdge refuses it.
func (f *Func) PositionsInto(p *Positions) error {
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
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			if f.Value(in.ID) == in {
				p.val[in.ID] = 0
			}
		}
		for i, in := range b.Code {
			if f.Value(in.ID) == in {
				p.val[in.ID] = int32(i + 1)
			}
		}
	}
	var err error
	f.ExcSites(func(s ExcSite) {
		h := s.Handler
		switch {
		case err != nil:
		case uint(h.Index) >= uint(nb) || f.Blocks[h.Index] != h:
			err = fmt.Errorf("try handler is not a block of the function")
		case s.Edge >= len(h.Preds) || h.Preds[s.Edge] != s.Pred:
			err = fmt.Errorf("exception edge %d of handler block %d is not its site's", s.Edge, h.Index)
		default:
			p.limit[int(p.first[h.Index])+s.Edge] = int32(s.At)
		}
	}, func(h *Block, sites int) {
		if err == nil && sites != len(h.Preds) {
			err = fmt.Errorf("handler block %d has %d exception edges for %d sites", h.Index, len(h.Preds), sites)
		}
	})
	return err
}

// Reset empties p for a body whose values are placed one by one, with
// room for n of them (0: as many as are placed).
func (p *Positions) Reset(n int) {
	val := p.val[:0]
	if cap(val) < n {
		val = make([]int32, 0, n)
	}
	*p = Positions{val: val}
}

// Place records that value v is defined at position at of its block.
func (p *Positions) Place(v ValueID, at int) {
	for int(v) >= len(p.val) {
		p.val = append(p.val, -1)
	}
	p.val[v] = int32(at)
}

// Cap is how many entries p's memory holds (PositionsInto and Place reuse
// it).
func (p *Positions) Cap() int { return cap(p.val) }

// Of returns the position of the instruction defining v, and whether that
// instruction is in the instruction stream at all.
func (p *Positions) Of(v ValueID) (int, bool) {
	if uint(v) >= uint(len(p.val)) {
		return 0, false
	}
	at := p.val[v]
	return int(at), at >= 0
}

// limitAt is how far into its source block edge k of the block at index
// bi of Func.Blocks can see: the position of the edge's throwing site, or
// -1 (the whole block) for a normal edge.
func (p *Positions) limitAt(bi, k int) int { return int(p.limit[int(p.first[bi])+k]) }

// Rules is admission's rule set for one function body, a rule per item a
// body is made of: the phi section of a block (Phis), a phi (Phi) and each
// of its operands (PhiOperand), an exception edge (ExcEdge), a code
// instruction (Code) and a Control Structure Tree reference (Ref). Each
// checks type separation (a value lives on exactly the plane its use
// implies) and referential integrity (a definition structurally
// dominates its use) for its item, from the body and from the facts a
// driver derived about the item: where each value is defined (Positions),
// the item's own position, an edge's limit and an instruction's Signature.
//
// Two drivers feed the one rule set. Module.Verify's walker (verifyFunc)
// works every fact out from a finished body, for modules built by hand
// (ssabuild, opt). The wire decoder calls each rule as it appends the
// item, with the facts it derived to decode it — the position it places
// the item at, the edge limit that windowed the operand, the Signature it
// read the operands through — so a decoded body is admitted in the walk
// that reads it, and nothing is derived twice. The rules see the same
// facts either way: a rule reads only what is final once its item is
// appended (dominators and reference blocks from the tree's shape, edges
// once the block section is read, definitions before their uses).
type Rules struct {
	m   *Module
	f   *Func
	pos *Positions
}

// Rules is the rule set for the body f of a function the tables claim,
// whose values its driver places in pos as it defines them.
func (a *Admission) Rules(f *Func, pos *Positions) Rules {
	return Rules{m: a.m, f: f, pos: pos}
}

// instrErr says which instruction of which block broke a rule.
func instrErr(b *Block, in *Instr, err error) error {
	return fmt.Errorf("block %d %s: %w", b.Index, in.Op, err)
}

// Phis is the rule for the phi section of block b, which holds n phis: a
// phi has an operand per incoming edge, so a block without predecessors
// has none.
func (r *Rules) Phis(b *Block, n int) error {
	if n > 0 && len(b.Preds) == 0 {
		return fmt.Errorf("block %d has phis but no predecessors", b.Index)
	}
	return nil
}

// Phi is the rule for phi in of block b apart from its operands: it is a
// phi, with an operand per incoming edge, not a memory-state phi outside
// optimization, and a safe-index phi's binding array value dominates the
// block (Appendix A). operands reports whether its operands are then
// checked against their edges (PhiOperand): not when the arity is wrong,
// nor for a memory-state phi.
func (r *Rules) Phi(b *Block, in *Instr) (operands bool, err error) {
	if in.Op != OpPhi {
		return false, fmt.Errorf("block %d: non-phi in phi section", b.Index)
	}
	if len(in.Args) != len(b.Preds) {
		return false, instrErr(b, in, fmt.Errorf("arity %d != %d predecessors", len(in.Args), len(b.Preds)))
	}
	if in.Type == r.m.Types.Mem {
		return false, instrErr(b, in, fmt.Errorf("memory-state phi outside optimization"))
	}
	if in.Bind != NoValue {
		if _, err := r.available(in.Bind, b, 0); err != nil {
			return true, instrErr(b, in, fmt.Errorf("safe-index binding: %w", err))
		}
	}
	return true, nil
}

// PhiOperand is the rule for operand k of phi in of block b: defined on
// the phi's plane, and at the source point of edge b.Preds[k] — the end
// of its source block, or before limit, the position of an exception
// edge's throwing site (limit < 0: the whole block).
func (r *Rules) PhiOperand(b *Block, in *Instr, k, limit int) error {
	a, e := in.Args[k], b.Preds[k]
	def := r.f.Value(a)
	if def == nil {
		return instrErr(b, in, fmt.Errorf("phi uses undefined value v%d", a))
	}
	defAt, present := r.pos.Of(a)
	switch {
	case !present:
		return instrErr(b, in, fmt.Errorf("phi operand v%d was removed from the instruction stream but is still used", a))
	case def.Blk == e.From:
		if limit >= 0 && defAt >= limit {
			return instrErr(b, in, fmt.Errorf("phi operand v%d defined after exception site in block %d",
				a, e.From.Index))
		}
	case !def.Blk.Dominates(e.From):
		return instrErr(b, in, fmt.Errorf("phi operand v%d (block %d) does not dominate edge source %d",
			a, def.Blk.Index, e.From.Index))
	}
	if want := in.Plane(); def.Plane() != want {
		return instrErr(b, in, fmt.Errorf("operand %d: %w", k, r.wrongPlane(def, want)))
	}
	return nil
}

// ExcEdge is the rule for exception edge e: its site is a
// potentially-throwing instruction of its source block, standing at
// position at there, which is how far into the block the edge's phi
// operands see (PhiOperand's limit).
func (r *Rules) ExcEdge(e Pred, at int) error {
	if in := e.Site; in.Blk != e.From || !in.Op.CanThrow() || at < 1 {
		return fmt.Errorf("exception edge from block %d: %s is not a throwing site that takes it there", e.From.Index, in.Op)
	}
	return nil
}

// Code is the rule for code instruction in, at position at of block b:
// every operand is defined before it, and on the plane sig — the
// Signature its opcode and immediates imply — names for it; its arity and
// result plane are sig's, and an indexcheck's result is bound to the
// array value it checked. A nil sig (the opcode and immediates imply
// none, which the driver reports) checks the operands' definitions alone.
func (r *Rules) Code(b *Block, at int, in *Instr, sig *Signature) error {
	if sig != nil && len(in.Args) != sig.NumOperands() {
		return instrErr(b, in, fmt.Errorf("want %d operands, have %d", sig.NumOperands(), len(in.Args)))
	}
	for i, a := range in.Args {
		if a == NoValue {
			return instrErr(b, in, fmt.Errorf("missing operand"))
		}
		def, err := r.available(a, b, at)
		if err != nil {
			return instrErr(b, in, err)
		}
		if sig == nil {
			continue
		}
		if want := sig.Operand(i, in.Args[0]); def.Plane() != want {
			return instrErr(b, in, fmt.Errorf("operand %d: %w", i, r.wrongPlane(def, want)))
		}
	}
	if sig == nil {
		return nil
	}
	if in.Type != sig.Result {
		tt := r.m.Types
		return instrErr(b, in, fmt.Errorf("result plane %s, want %s", tt.Describe(in.Type), tt.Describe(sig.Result)))
	}
	if sig.BindResult && in.Bind != in.Args[0] {
		return instrErr(b, in, fmt.Errorf("safe-index result must bind to the checked array value"))
	}
	return nil
}

// Ref is the rule for CST node n's reference of value v, on plane want
// (Module.RefPlane): defined by the end of n's reference block, on that
// plane.
func (r *Rules) Ref(n *CSTNode, v ValueID, want PlaneKey) error {
	if n.At == nil {
		return fmt.Errorf("%s node without reference block", n.Kind)
	}
	def, err := r.available(v, n.At, len(n.At.Code)+1)
	if err == nil && def.Plane() != want {
		err = r.wrongPlane(def, want)
	}
	if err != nil {
		return fmt.Errorf("%s reference: %w", n.Kind, err)
	}
	return nil
}

// available returns the definition of value v if v may be used at
// position at of block b. A definition that has been unlinked from the
// instruction stream (a stale values-table entry — the signature of a
// broken optimization pass) is as unavailable as one that never existed.
func (r *Rules) available(v ValueID, b *Block, at int) (*Instr, error) {
	def := r.f.Value(v)
	if def == nil {
		return nil, fmt.Errorf("use of undefined value v%d", v)
	}
	defAt, present := r.pos.Of(v)
	switch {
	case !present:
		return nil, fmt.Errorf("v%d was removed from the instruction stream but is still used", v)
	case def.Blk == b:
		if defAt >= at {
			return nil, fmt.Errorf("v%d used before its definition in block %d", v, b.Index)
		}
	case !def.Blk.Dominates(b):
		return nil, fmt.Errorf("v%d (block %d) does not dominate use in block %d", v, def.Blk.Index, b.Index)
	}
	return def, nil
}

// wrongPlane is the type-separation error of a reference to def, which
// the rule wanted on plane want.
func (r *Rules) wrongPlane(def *Instr, want PlaneKey) error {
	return fmt.Errorf("v%d on plane %s, want %s",
		def.ID, describePlane(r.m.Types, def.Plane()), describePlane(r.m.Types, want))
}

func describePlane(tt *TypeTable, k PlaneKey) string {
	s := tt.Describe(k.Type)
	if k.Bind != NoValue {
		s += fmt.Sprintf("@v%d", k.Bind)
	}
	return s
}

// verifyFunc is the rule set's self-checking driver: it builds f's
// position table in pos and feeds every item of f to its rule, working
// out each fact — positions, edge limits, signatures, reference planes —
// from the finished body, and reports every rule broken.
func (m *Module) verifyFunc(f *Func, pos *Positions) error {
	r := Rules{m: m, f: f, pos: pos}
	var errs []error
	report := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	report(f.PositionsInto(pos))
	for bi, b := range f.Blocks {
		report(r.Phis(b, len(b.Phis)))
		for k, e := range b.Preds {
			if e.Site != nil {
				report(r.ExcEdge(e, pos.limitAt(bi, k)))
			}
		}
		for _, in := range b.Phis {
			operands, err := r.Phi(b, in)
			report(err)
			for k := range in.Args {
				if operands {
					report(r.PhiOperand(b, in, k, pos.limitAt(bi, k)))
				}
			}
		}
		for i, in := range b.Code {
			sig, err := m.Signature(f, in)
			if err != nil {
				report(r.Code(b, i+1, in, nil))
				report(instrErr(b, in, err))
				continue
			}
			report(r.Code(b, i+1, in, &sig))
		}
	}

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
			report(err)
		case slot != nil && *slot != NoValue:
			report(r.Ref(n, *slot, want))
		}
		for _, k := range n.Kids {
			walkCST(k)
		}
	}
	walkCST(f.Body)
	return errors.Join(errs...)
}
