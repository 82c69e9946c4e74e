package core

import (
	"fmt"
	"slices"
)

// FieldRef is one entry of the module field table ("symbolic reference to
// a data member" in the paper's getfield/setfield description).
type FieldRef struct {
	Owner  TypeID // class that declares the field
	Name   string
	Type   TypeID
	Static bool
	// Slot is the instance slot (including inherited) or the index in
	// the owner's static storage. Admission derives it (DeriveTables).
	Slot int32
}

// MethodRef is one entry of the module method table.
type MethodRef struct {
	Owner  TypeID
	Name   string
	Params []TypeID // not including the receiver
	Result TypeID   // Void for void methods and constructors
	Static bool
	IsCtor bool
	// VSlot is the dispatch-table slot for virtual methods, -1
	// otherwise. Admission derives it (DeriveTables).
	VSlot int32
	// Builtin is the host operation of an imported, natively implemented
	// method: the host library's entry of the method's owner, name,
	// parameters, result and staticness (HostMethods); 0 otherwise.
	// Admission derives it (DeriveTables).
	Builtin BuiltinID
	// FuncIdx indexes Module.Funcs for the unit's methods, where the body
	// rule places their bodies (PlaceBodies); -1 for imported methods.
	FuncIdx int32
}

// Sig renders the method signature for diagnostics.
func (m *MethodRef) Sig(tt *TypeTable) string {
	s := tt.Describe(m.Owner) + "." + m.Name + "("
	for i, p := range m.Params {
		if i > 0 {
			s += ","
		}
		s += tt.Describe(p)
	}
	return s + ")"
}

// ClassDef describes one user class of the distribution unit. Its type
// and superclass are the type table's, and the class list is the type
// table's unit classes in type order; everything else admission derives
// from the tables (DeriveTables).
type ClassDef struct {
	Type  TypeID
	Super TypeID
	// Fields lists the field-table indices of the fields this class
	// declares (instance and static).
	Fields []int32
	// Methods lists the method-table indices of declared methods,
	// constructors included.
	Methods []int32
	// NumSlots is the instance slot count including inherited slots;
	// NumStatics the number of static slots declared here.
	NumSlots   int32
	NumStatics int32
	// VTable is the full dispatch table (method-table indices).
	VTable []int32
}

// Module is a SafeTSA distribution unit: the type table, symbol tables,
// and function bodies.
type Module struct {
	Types   *TypeTable
	Classes []*ClassDef
	Fields  []FieldRef
	Methods []MethodRef
	Funcs   []*Func
	// Entry is the method-table index of static main, or -1; the body
	// rule gives it (PlaceBodies).
	Entry int32
	// StaticInit lists, per class in Classes order, the function index
	// of the synthetic static initializer (-1 if none), where the body
	// rule places it.
	StaticInit []int32
}

// FuncOf returns the function body for a method-table index, or nil.
func (m *Module) FuncOf(method int32) *Func {
	if method < 0 || int(method) >= len(m.Methods) {
		return nil
	}
	fi := m.Methods[method].FuncIdx
	if fi < 0 || int(fi) >= len(m.Funcs) {
		return nil
	}
	return m.Funcs[fi]
}

// FuncName is the name of f's claim: Owner.Name for the body of a method,
// Class.<clinit> for a class's static initializer. A claim outside the
// tables (a hand-built module's) reads ?claimN, so a diagnostic never
// panics.
func (m *Module) FuncName(f *Func) string { return m.claimedName(f.Claim) }

// claimedName is FuncName for claim c.
func (m *Module) claimedName(c int32) string {
	switch {
	case c >= 0 && int(c) < len(m.Methods):
		mr := &m.Methods[c]
		return m.Types.Describe(mr.Owner) + "." + mr.Name
	case c < 0 && int(-1-c) < len(m.Classes):
		return m.Types.Describe(m.Classes[-1-c].Type) + ".<clinit>"
	}
	return fmt.Sprintf("?claim%d", c)
}

// ClaimedIndex is the function index the tables give claim c: its
// method's body index, or its class's static-initializer entry; -1 for
// a claim outside the tables.
func (m *Module) ClaimedIndex(c int32) int32 {
	switch {
	case c >= 0 && int(c) < len(m.Methods):
		return m.Methods[c].FuncIdx
	case c < 0 && int(-1-c) < len(m.StaticInit):
		return m.StaticInit[-1-c]
	}
	return -1
}

// claimedMethod is the method f is the body of, or nil: for a static
// initializer, or a claim outside the method table.
func (m *Module) claimedMethod(f *Func) *MethodRef {
	if f.Claim < 0 || int(f.Claim) >= len(m.Methods) {
		return nil
	}
	return &m.Methods[f.Claim]
}

// NumParams is how many parameters f's claim gives it: the receiver
// unless its method is static, then the method's parameters; none for a
// static initializer.
func (m *Module) NumParams(f *Func) int {
	mr := m.claimedMethod(f)
	switch {
	case mr == nil:
		return 0
	case mr.Static:
		return len(mr.Params)
	}
	return 1 + len(mr.Params)
}

// Param is the type of f's parameter i < NumParams(f): the receiver's
// safe-ref unless f's method is static, then the method's parameters.
// DeriveTables holds every owner to a reference type, which has one.
func (m *Module) Param(f *Func, i int) TypeID {
	mr := m.claimedMethod(f)
	if !mr.Static {
		if i == 0 {
			return m.Types.SafeRefOf(mr.Owner)
		}
		i--
	}
	return mr.Params[i]
}

// Result is the type f returns: its method's result, void for a static
// initializer.
func (m *Module) Result(f *Func) TypeID {
	if mr := m.claimedMethod(f); mr != nil {
		return mr.Result
	}
	return m.Types.Void
}

// NumInstrs counts the instructions of every function in the module
// (phi instructions included) — the "Number of Instructions" column of
// Figure 5.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// ---------------------------------------------------------------------
// Functions, blocks, and the Control Structure Tree.

// Pred is one incoming edge of a block. Normal edges come from the end
// of From; exception edges come from the potentially-throwing
// instruction Site inside From (the paper's implicit edges from each
// potential point of exception to the exception-handling phi node).
type Pred struct {
	From *Block
	Site *Instr // nil for normal control-flow edges
}

// Block is a basic block of SafeTSA instructions: phis first, then code.
type Block struct {
	// Index is the dominator-tree pre-order number assigned by
	// Func.Finish; blocks are created in that order by construction.
	Index int
	Phis  []*Instr
	Code  []*Instr
	Preds []Pred

	// Dominator-tree links, computed by Func.Finish.
	IDom     *Block
	Children []*Block
	Depth    int
	preIn    int
	preOut   int
}

// Instrs iterates phis then code.
func (b *Block) Instrs(f func(*Instr)) {
	for _, in := range b.Phis {
		f(in)
	}
	for _, in := range b.Code {
		f(in)
	}
}

// Dominates reports whether b dominates c (reflexively), using the
// pre/post numbering assigned by Func.Finish.
func (b *Block) Dominates(c *Block) bool {
	return b.preIn <= c.preIn && c.preOut <= b.preOut
}

// CSTKind identifies Control Structure Tree productions.
type CSTKind uint8

// The CST productions. The CST carries all control flow; basic blocks
// contain no terminators.
const (
	CSeq      CSTKind = iota // sequence of children
	CBlock                   // leaf: one basic block
	CIf                      // kids: [then, else]; Cond computed beforehand
	CWhile                   // Header block (phis+cond code), kids: [body]
	CDoWhile                 // kids: [body]; Latch block computes Cond
	CReturn                  // leaf; Val optional
	CBreak                   // leaf
	CContinue                // leaf
	CThrow                   // leaf; Val is the thrown reference
	CTry                     // kids: [body, handler]; Handler dispatches
)

// NumCSTKinds is the size of the CST production alphabet.
const NumCSTKinds = int(CTry) + 1

var cstNames = [...]string{"seq", "block", "if", "while", "dowhile",
	"return", "break", "continue", "throw", "try"}

func (k CSTKind) String() string {
	if int(k) < len(cstNames) {
		return cstNames[k]
	}
	return fmt.Sprintf("cst(%d)", uint8(k))
}

// CSTNode is one node of the Control Structure Tree.
type CSTNode struct {
	Kind CSTKind
	Kids []*CSTNode

	// Block is the basic block of CBlock leaves, the header of CWhile,
	// and the latch of CDoWhile.
	Block *Block
	// Cond is the controlling boolean value of CIf/CWhile/CDoWhile.
	Cond ValueID
	// Val is the returned/thrown value of CReturn/CThrow (NoValue for
	// void returns).
	Val ValueID
	// Handler is the exception-handler entry block of CTry (the block
	// holding the exception phis and the OpCatch); kids[1] is the
	// handler body including the catch-type dispatch.
	Handler *Block
	// At is the block a node's Cond/Val is referenced from: the current
	// block at the node's decision point. It is determined structurally
	// and recomputed identically by the wire decoder.
	At *Block
}

// MaxCSTDepth bounds how deep a function's Control Structure Tree may
// nest: no node hangs more than MaxCSTDepth levels below its function's
// root. It is a limit of the distribution format, held at both ends: the
// wire decoder refuses a deeper tree before building it, and the producer
// refuses to emit one (CheckCSTDepth), so every unit the producer ships
// is one its consumers admit.
const MaxCSTDepth = 512

// CheckCSTDepth reports the first function of m whose CST nests deeper
// than MaxCSTDepth. It descends no further than the bound.
func (m *Module) CheckCSTDepth() error {
	for _, f := range m.Funcs {
		if f.Body != nil && cstDeeper(f.Body, MaxCSTDepth) {
			return fmt.Errorf("%s: control structure nesting deeper than %d levels", m.FuncName(f), MaxCSTDepth)
		}
	}
	return nil
}

// cstDeeper reports whether some node hangs more than levels below n.
func cstDeeper(n *CSTNode, levels int) bool {
	for _, k := range n.Kids {
		if levels == 0 || cstDeeper(k, levels-1) {
			return true
		}
	}
	return false
}

// ExcSite is an exception site of a function body inside a try: a
// potentially-throwing instruction or a throw node. The wire spells no
// exception edge (DESIGN.md §10): the site takes the next edge of its
// innermost handler, in transmission order, and the handler has no other
// edge. So the site's edge is Handler.Preds[Edge], which is Pred when the
// body keeps the rule.
type ExcSite struct {
	Handler *Block
	Edge    int
	// Pred is the edge the site raises along: from its block, with the
	// instruction as its Site, nil for a throw node.
	Pred Pred
	// At is the site's position in its block (Positions), how far into
	// it the edge's phi operands see; -1 for a throw node, which ends its
	// block.
	At int
}

// ExcSites walks f's body in transmission order. It calls site for every
// exception site inside a try, and closed for every try once its body is
// walked, with the try's handler and the number of sites in its body: the
// number of edges the rule gives the handler.
func (f *Func) ExcSites(site func(ExcSite), closed func(h *Block, sites int)) {
	if f.Body != nil {
		excSites(f.Body, nil, new(int), site, closed)
	}
}

// excSites walks n with h its innermost handler (nil outside every try)
// and *next the ordinal of h's next edge.
func excSites(n *CSTNode, h *Block, next *int, site func(ExcSite), closed func(*Block, int)) {
	switch n.Kind {
	case CBlock:
		if h == nil {
			return
		}
		for i, in := range n.Block.Code {
			if in.Op.CanThrow() {
				site(ExcSite{Handler: h, Edge: *next, Pred: Pred{From: n.Block, Site: in}, At: i + 1})
				*next++
			}
		}
		return
	case CThrow:
		if h != nil {
			site(ExcSite{Handler: h, Edge: *next, Pred: Pred{From: n.At}, At: -1})
			*next++
		}
		return
	case CTry:
		if n.Handler == nil || len(n.Kids) != 2 {
			break // no try the wire can say; its kids are walked as a sequence's
		}
		k := 0
		excSites(n.Kids[0], n.Handler, &k, site, closed)
		closed(n.Handler, k)
		excSites(n.Kids[1], h, next, site, closed)
		return
	}
	for _, k := range n.Kids {
		excSites(k, h, next, site, closed)
	}
}

// Func is one SafeTSA function body.
type Func struct {
	// Claim is what the body is, in Admission's encoding: the body of
	// method Claim (>= 0), or the static initializer of class definition
	// -1-Claim. Its name, parameters and result are the claim's, derived
	// from the tables on demand (Module.FuncName, NumParams, Param,
	// Result): a body holds no copy of them to disagree with its tables.
	Claim int32

	Body  *CSTNode
	Entry *Block
	// Blocks in creation order (which Finish re-orders to dominator
	// pre-order).
	Blocks []*Block

	// values[id] is the defining instruction of each SSA value;
	// index 0 unused.
	values []*Instr
}

// NewFunc creates an empty function with the given claim, with room for a
// small body's values.
func NewFunc(claim int32) *Func {
	return &Func{Claim: claim, values: make([]*Instr, 1, 16)}
}

// Begin makes f, a Func carved from a slab, an empty function with the
// given claim, as NewFunc makes one, whose value table is built in the
// memory of vals until KeepValues moves it out: for a decoder that keeps
// every body it decodes in its own memory (wire.Arena). vals must be
// empty scratch that nothing else reads.
func (f *Func) Begin(claim int32, vals []*Instr) {
	*f = Func{Claim: claim, values: append(vals[:0], nil)}
}

// KeepValues moves f's value table into s at its exact length, and returns
// the memory it was built in, cleared, for the next body's Begin.
func (f *Func) KeepValues(s *Slab[*Instr]) []*Instr {
	built := f.values
	f.values = s.Keep(built)
	clear(built)
	return built[:0]
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Value returns the defining instruction of an SSA value (nil for
// NoValue or out-of-range IDs).
func (f *Func) Value(id ValueID) *Instr {
	if id <= 0 || int(id) >= len(f.values) {
		return nil
	}
	return f.values[id]
}

// NumValues returns the number of SSA values defined.
func (f *Func) NumValues() int { return len(f.values) - 1 }

// Define assigns the next SSA id to in and records it.
func (f *Func) Define(in *Instr) ValueID {
	in.ID = ValueID(len(f.values))
	f.values = append(f.values, in)
	return in.ID
}

// NumInstrs counts the transmitted instructions: phis and code, but not
// the parameter pre-loads, which are implied by the signature and never
// externalized.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Phis)
		for _, in := range b.Code {
			if in.Op != OpParam {
				n++
			}
		}
	}
	return n
}

// AppendCSTBlocks appends the blocks of the function to out in Control
// Structure Tree walk order — the canonical transmission order of section
// 7 ("a fixed order, derived from the CST, corresponding to a pre-order
// traversal of the dominator tree"). Every block appears exactly once: as
// a CBlock leaf or as a CTry handler entry.
func (f *Func) AppendCSTBlocks(out []*Block) []*Block { return cstBlocks(f.Body, out) }

// cstBlocks appends the CBlock leaves under n in walk order; a CTry's
// handler entry block is the first leaf of its kids[1].
func cstBlocks(n *CSTNode, out []*Block) []*Block {
	if n == nil {
		return out
	}
	if n.Kind == CBlock {
		return append(out, n.Block)
	}
	for _, k := range n.Kids {
		out = cstBlocks(k, out)
	}
	return out
}

// Finish installs the dominator tree from the structural IDom links set
// during construction (the dominator relation is integrated in the CST,
// as in the paper's UAST), orders blocks canonically, and assigns the
// pre/post numbering used by Dominates. It must be called after
// construction and after any pass that changes block structure.
func (f *Func) Finish() { f.FinishIn(nil) }

// FinishIn is Finish with the dominator tree's child lists carved from s,
// for a decoder that keeps every body in its own memory (wire.Arena); a
// nil s allocates them.
func (f *Func) FinishIn(s *Slab[*Block]) {
	// The order is written over f.Blocks itself: it is read off the CST,
	// and holds the same blocks when the check below passes.
	order := cstBlocks(f.Body, f.Blocks[:0])
	if len(order) != len(f.Blocks) {
		panic(fmt.Sprintf("core: body of claim %d: CST covers %d blocks, function has %d",
			f.Claim, len(order), len(f.Blocks)))
	}
	// Children are carved from one vector, each list cut to its exact
	// capacity (counted in preIn, which the numbering below overwrites),
	// and filled in CST order — which keeps the dominator pre-order equal
	// to the CST walk order on both ends of the wire.
	for _, b := range order {
		b.Children, b.preIn = nil, 0
	}
	for _, b := range order {
		if b == f.Entry {
			continue
		}
		if b.IDom == nil {
			panic(fmt.Sprintf("core: body of claim %d: block without immediate dominator", f.Claim))
		}
		b.IDom.preIn++
	}
	var kids []*Block
	if s != nil {
		kids = s.Take(len(order))
	} else {
		kids = make([]*Block, len(order))
	}
	for i, b := range order {
		b.Index = i
		if n := b.preIn; n > 0 {
			b.Children, kids = kids[:0:n], kids[n:]
		}
	}
	for _, b := range order {
		if b != f.Entry {
			b.IDom.Children = append(b.IDom.Children, b)
		}
	}
	f.Entry.number(0, 0)
	f.Blocks = order
}

// number assigns Depth and the pre/post interval of Dominates to the
// dominator subtree under b, and returns the next free counter value.
func (b *Block) number(depth, counter int) int {
	b.Depth = depth
	b.preIn = counter
	counter++
	for _, c := range b.Children {
		counter = c.number(depth+1, counter)
	}
	b.preOut = counter
	return counter + 1
}

// ExcEdgeOf finds the exception edge of potentially-throwing instruction
// in: its handler h and the edge's index k there, the edge's position in
// h.Preds; h is nil for a site outside every try.
func (f *Func) ExcEdgeOf(in *Instr) (h *Block, k int) {
	e := Pred{From: in.Blk, Site: in}
	for _, b := range f.Blocks {
		if k := slices.Index(b.Preds, e); k >= 0 {
			return b, k
		}
	}
	return nil, -1
}

// RemoveExcSite removes the exception edge of potentially-throwing
// instruction in from its handler, and from every phi of the handler the
// matching operand; the edges after it keep their order. Used when the
// optimizer deletes a redundant check (the dominating check subsumes its
// exception behaviour), with the check.
func (f *Func) RemoveExcSite(in *Instr) {
	if h, k := f.ExcEdgeOf(in); h != nil {
		h.Preds = slices.Delete(h.Preds, k, k+1)
		for _, phi := range h.Phis {
			phi.Args = slices.Delete(phi.Args, k, k+1)
		}
	}
}
