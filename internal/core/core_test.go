package core

import (
	"slices"
	"strings"
	"testing"
)

func TestTypeTableImplicitPrefix(t *testing.T) {
	a := NewTypeTable()
	b := NewTypeTable()
	if len(a.ByID) != len(b.ByID) || a.ImplicitLen != b.ImplicitLen {
		t.Fatal("implicit prefix is not deterministic")
	}
	for i := 1; i < a.ImplicitLen; i++ {
		if a.ByID[i].Kind != b.ByID[i].Kind || a.ByID[i].Name != b.ByID[i].Name {
			t.Fatalf("entry %d differs", i)
		}
		if !a.ByID[i].Imported {
			t.Fatalf("implicit entry %d not marked imported", i)
		}
	}
	// Every imported reference type already has its safe-ref shadow.
	for _, id := range []TypeID{a.Object, a.String, a.Throwable, a.NPE} {
		s := a.SafeRefOf(id)
		if a.MustGet(s).Kind != TSafeRef || a.MustGet(s).Base != id {
			t.Errorf("bad safe-ref shadow for %s", a.Describe(id))
		}
	}
}

func TestTypeTableUserTypes(t *testing.T) {
	tt := NewTypeTable()
	c := tt.AddClass("Point", tt.Object)
	if tt.Class("Point") != c || tt.AddClass("Point", tt.Object) != c {
		t.Error("class interning broken")
	}
	arr := tt.ArrayOf(tt.Int)
	if tt.ArrayOf(tt.Int) != arr {
		t.Error("array interning broken")
	}
	if tt.MustGet(tt.SafeIndexOf(arr)).Base != arr {
		t.Error("safe-index shadow wrong")
	}
	aa := tt.ArrayOf(arr)
	if tt.MustGet(aa).Elem != arr {
		t.Error("nested array elem wrong")
	}
	if tt.Describe(tt.SafeRefOf(arr)) != "safe-int[]" {
		t.Errorf("describe: %q", tt.Describe(tt.SafeRefOf(arr)))
	}
	if tt.Describe(tt.SafeIndexOf(arr)) != "safe-index-int[]" {
		t.Errorf("describe: %q", tt.Describe(tt.SafeIndexOf(arr)))
	}
	if !tt.IsSubclass(c, tt.Object) || tt.IsSubclass(tt.Object, c) {
		t.Error("subclass relation wrong")
	}
	if !tt.IsSubclass(arr, tt.Object) {
		t.Error("arrays must be subtypes of Object")
	}
	if tt.IsSubclass(arr, aa) {
		t.Error("unrelated arrays conflated")
	}
	if tt.BaseRef(tt.SafeRefOf(c)) != c || tt.BaseRef(c) != c {
		t.Error("BaseRef wrong")
	}
	if tt.Get(0) != nil || tt.Get(TypeID(len(tt.ByID))) != nil {
		t.Error("out-of-range Get must return nil")
	}
}

func TestPrimSignaturesComplete(t *testing.T) {
	count := 0
	for p := PrimOp(1); int(p) < NumPrimOps; p++ {
		if !p.Valid() {
			t.Errorf("primitive %d has no signature", p)
			continue
		}
		count++
		sig := p.Sig()
		if sig.Name == "" || len(sig.Params) == 0 || sig.Result == PlNone {
			t.Errorf("%s: incomplete signature", sig.Name)
		}
		if !strings.Contains(sig.Name, ".") {
			t.Errorf("%s: primitives are subordinate to types and must be type-qualified", sig.Name)
		}
	}
	if count != NumPrimOps-1 {
		t.Errorf("%d signatures for %d ops", count, NumPrimOps-1)
	}
	// Only integer division and remainder may throw.
	throwing := map[PrimOp]bool{PIDiv: true, PIRem: true, PLDiv: true, PLRem: true}
	for p := PrimOp(1); int(p) < NumPrimOps; p++ {
		if p.Sig().Throws != throwing[p] {
			t.Errorf("%s: wrong Throws classification", p)
		}
	}
}

func TestOpcodeClassification(t *testing.T) {
	for _, op := range []Op{OpXPrim, OpNullCheck, OpIndexCheck, OpUpcast, OpNewArray, OpXCall, OpXDispatch} {
		if !op.CanThrow() {
			t.Errorf("%s must be a potential exception point", op)
		}
	}
	for _, op := range []Op{OpPrim, OpPhi, OpConst, OpParam, OpDowncast, OpGetField, OpGetElt, OpArrayLen} {
		if op.CanThrow() {
			t.Errorf("%s must not throw", op)
		}
	}
	for _, op := range []Op{OpSetField, OpSetElt, OpXCall, OpXDispatch, OpXPrim} {
		if !op.HasSideEffect() {
			t.Errorf("%s must be a DCE root", op)
		}
	}
	for _, op := range []Op{OpPrim, OpGetField, OpGetElt, OpArrayLen, OpDowncast, OpInstanceOf} {
		if op.HasSideEffect() {
			t.Errorf("%s must be removable when unused", op)
		}
	}
}

func TestConstValString(t *testing.T) {
	if (ConstVal{Kind: KNull}).String() != "null" {
		t.Error("null renders wrong")
	}
}

// buildTinyFunc assembles a two-block function by hand:
//
//	entry: c0 = const 1; c1 = const 2; s = add c0 c1; cond = lt ...
//	if cond { b1: add s s } ; b2(join)
func buildTinyFunc(tt *TypeTable) *Func {
	f := NewFunc(-1) // a claim no table of a module without classes makes
	entry := f.NewBlock()
	f.Entry = entry

	mk := func(b *Block, op Op, typ TypeID, prim PrimOp, args ...ValueID) *Instr {
		in := &Instr{Op: op, Type: typ, Prim: prim, Args: args, Blk: b}
		f.Define(in)
		b.Code = append(b.Code, in)
		return in
	}
	c0 := mk(entry, OpConst, tt.Int, PInvalid)
	c0.Const = ConstVal{Kind: KInt, I: 1}
	c1 := mk(entry, OpConst, tt.Int, PInvalid)
	c1.Const = ConstVal{Kind: KInt, I: 2}
	sum := mk(entry, OpPrim, tt.Int, PIAdd, c0.ID, c1.ID)
	cond := mk(entry, OpPrim, tt.Boolean, PILt, c0.ID, sum.ID)

	b1 := f.NewBlock()
	b1.IDom = entry
	b1.Preds = []Pred{{From: entry}}
	mk(b1, OpPrim, tt.Int, PIAdd, sum.ID, sum.ID)

	b2 := f.NewBlock()
	b2.IDom = entry
	b2.Preds = []Pred{{From: b1}, {From: entry}}

	f.Body = &CSTNode{Kind: CSeq, Kids: []*CSTNode{
		{Kind: CBlock, Block: entry},
		{Kind: CIf, At: entry, Cond: cond.ID, Kids: []*CSTNode{
			{Kind: CSeq, Kids: []*CSTNode{{Kind: CBlock, Block: b1}}},
		}},
		{Kind: CBlock, Block: b2},
		{Kind: CReturn, At: b2},
	}}
	f.Finish()
	return f
}

func TestVerifyAcceptsHandBuilt(t *testing.T) {
	m := &Module{Types: NewTypeTable(), Entry: -1}
	m.Funcs = append(m.Funcs, buildTinyFunc(m.Types))
	if err := m.Verify(VerifyOptions{}); err != nil {
		t.Fatalf("hand-built module rejected: %v", err)
	}
}

func TestVerifyRejectsTypeConfusion(t *testing.T) {
	corruptions := []struct {
		name string
		hack func(m *Module, f *Func)
	}{
		{"operand from the wrong plane", func(m *Module, f *Func) {
			// int.add over a boolean value.
			f.Entry.Code[2].Args[1] = f.Entry.Code[3].ID // cond is boolean
		}},
		{"use before definition", func(m *Module, f *Func) {
			f.Entry.Code[2].Args[0] = f.Entry.Code[3].ID
			f.Entry.Code[3].Args[0] = f.Entry.Code[2].ID
		}},
		{"reference across a non-dominating block", func(m *Module, f *Func) {
			// The join block uses the value defined in the then-arm.
			b1 := f.Blocks[1]
			b2 := f.Blocks[2]
			in := &Instr{Op: OpPrim, Type: m.Types.Int, Prim: PINeg,
				Args: []ValueID{b1.Code[0].ID}, Blk: b2}
			f.Define(in)
			b2.Code = append(b2.Code, in)
		}},
		{"phi arity mismatch", func(m *Module, f *Func) {
			b2 := f.Blocks[2]
			phi := &Instr{Op: OpPhi, Type: m.Types.Int,
				Args: []ValueID{f.Entry.Code[0].ID}, Blk: b2}
			f.Define(phi)
			b2.Phis = append(b2.Phis, phi)
		}},
		{"xprimitive misuse", func(m *Module, f *Func) {
			f.Entry.Code[2].Prim = PIDiv // div must use OpXPrim
		}},
		{"downcast adds safety", func(m *Module, f *Func) {
			nc := &Instr{Op: OpConst, Type: m.Types.Object,
				Const: ConstVal{Kind: KNull}, Blk: f.Entry}
			f.Define(nc)
			bad := &Instr{Op: OpDowncast, Type: m.Types.SafeRefOf(m.Types.Object),
				ArgType: m.Types.Object, TypeArg: m.Types.SafeRefOf(m.Types.Object),
				Args: []ValueID{nc.ID}, Blk: f.Entry}
			f.Define(bad)
			f.Entry.Code = append(f.Entry.Code, nc, bad)
		}},
		{"null constant on a safe plane", func(m *Module, f *Func) {
			bad := &Instr{Op: OpConst, Type: m.Types.SafeRefOf(m.Types.Object),
				Const: ConstVal{Kind: KNull}, Blk: f.Entry}
			f.Define(bad)
			f.Entry.Code = append(f.Entry.Code, bad)
		}},
		{"return value from the wrong plane", func(m *Module, f *Func) {
			f.Body.Kids[3].Val = f.Entry.Code[0].ID // int where void expected
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			m := &Module{Types: NewTypeTable(), Entry: -1}
			f := buildTinyFunc(m.Types)
			m.Funcs = append(m.Funcs, f)
			c.hack(m, f)
			if err := m.Verify(VerifyOptions{}); err == nil {
				t.Fatal("corrupted module passed verification")
			}
		})
	}
}

func TestEncodeRefPanicsOnInsecureReference(t *testing.T) {
	tt := NewTypeTable()
	f := buildTinyFunc(tt)
	planeIdx := f.PlaneIndex()
	b1 := f.Blocks[1]
	b2 := f.Blocks[2]
	// b1's value does not dominate b2 — encoding must refuse.
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeRef produced an (l,r) pair for a non-dominating definition")
		}
	}()
	f.EncodeRef(b2, b1.Code[0].ID, planeIdx)
}

func TestDominatesAndPlaneIndex(t *testing.T) {
	tt := NewTypeTable()
	f := buildTinyFunc(tt)
	entry, b1, b2 := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	if !entry.Dominates(b1) || !entry.Dominates(b2) || b1.Dominates(b2) || !b1.Dominates(b1) {
		t.Error("dominance relation wrong")
	}
	idx := f.PlaneIndex()
	// Entry's int plane: c0, c1, sum -> registers 0, 1, 2.
	if idx[f.Entry.Code[0].ID] != 0 || idx[f.Entry.Code[1].ID] != 1 || idx[f.Entry.Code[2].ID] != 2 {
		t.Error("int plane numbering wrong")
	}
	// The boolean lives on its own plane, register 0.
	if idx[f.Entry.Code[3].ID] != 0 {
		t.Error("type separation: boolean must start its own plane")
	}
	r := f.EncodeRef(b1, f.Entry.Code[2].ID, idx)
	if r.L != 1 || r.R != 2 {
		t.Errorf("ref from b1 to entry sum = (%d-%d), want (1-2)", r.L, r.R)
	}
}

// TestRemoveExcSite: removing a site's edge from its handler, with the
// site, leaves every other site's edge where the tree puts it.
func TestRemoveExcSite(t *testing.T) {
	tt := NewTypeTable()
	f := NewFunc(-1)
	entry := f.NewBlock()
	f.Entry = entry
	body := f.NewBlock()
	body.IDom = entry
	handler := f.NewBlock()
	handler.IDom = entry
	body.Preds = []Pred{{From: entry}}

	div := func() *Instr {
		c := &Instr{Op: OpConst, Type: tt.Int, Const: ConstVal{Kind: KInt, I: 1}, Blk: body}
		f.Define(c)
		in := &Instr{Op: OpXPrim, Type: tt.Int, Prim: PIDiv, Args: []ValueID{c.ID, c.ID}, Blk: body}
		f.Define(in)
		body.Code = append(body.Code, c, in)
		return in
	}
	d1, d2, d3 := div(), div(), div()
	for _, in := range []*Instr{d1, d2, d3} {
		handler.Preds = append(handler.Preds, Pred{From: body, Site: in})
	}
	phi := &Instr{Op: OpPhi, Type: tt.Int, Args: []ValueID{d1.Args[0], d2.Args[0], d3.Args[0]}, Blk: handler}
	f.Define(phi)
	handler.Phis = append(handler.Phis, phi)
	f.Body = &CSTNode{Kind: CSeq, Kids: []*CSTNode{
		{Kind: CBlock, Block: entry},
		{Kind: CTry, Handler: handler, Kids: []*CSTNode{{Kind: CBlock, Block: body}, {Kind: CBlock, Block: handler}}},
	}}
	f.Finish()

	f.RemoveExcSite(d2)
	body.Code = slices.DeleteFunc(body.Code, func(in *Instr) bool { return in == d2 })
	if len(handler.Preds) != 2 || len(phi.Args) != 2 {
		t.Fatalf("edge not removed: %d preds, %d phi args", len(handler.Preds), len(phi.Args))
	}
	if phi.Args[0] != d1.Args[0] || phi.Args[1] != d3.Args[0] {
		t.Errorf("phi operands %v, want those of d1 and d3", phi.Args)
	}
	var sites []*Instr
	f.ExcSites(func(s ExcSite) {
		sites = append(sites, s.Pred.Site)
		if s.Handler != handler || handler.Preds[s.Edge] != s.Pred {
			t.Errorf("v%d is not edge %d of its handler", s.Pred.Site.ID, s.Edge)
		}
	}, func(*Block, int) {})
	if !slices.Equal(sites, []*Instr{d1, d3}) {
		t.Errorf("sites after removal: %v", sites)
	}
	if err := f.PositionsInto(new(Positions)); err != nil {
		t.Error(err)
	}
}

// TestSlabRewindReusesChunks: a recycling slab hands out the same chunks
// again after Rewind, zeroed where they were used, and makes a new chunk
// only for a vector no kept chunk can hold; while Poisoning, Rewind
// overwrites what was handed out with junk and keeps nothing.
func TestSlabRewindReusesChunks(t *testing.T) {
	var s Slab[ValueID]
	s.Recycle()
	first := s.Take(10)
	for i := range first {
		first[i] = ValueID(i + 1)
	}
	big := s.Take(200) // longer than any chunk: a chunk of its own
	big[0] = 7
	held := s.Rewind()
	again := s.Take(10)
	if &again[0] != &first[0] {
		t.Fatal("a rewound slab did not hand out its first chunk again")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("element %d of a rewound chunk is %d, want 0", i, v)
		}
	}
	b := s.Take(200)
	if &b[0] != &big[0] || b[0] != 0 {
		t.Fatal("the long vector's chunk was not reused zeroed")
	}
	PoisonRecycled(true)
	defer PoisonRecycled(false)
	if n := s.Rewind(); n != 0 || held != (16+200)*4 || first[0] != junkValue || big[0] != junkValue {
		t.Fatalf("poisoned: %d, %d, holding %d B (held %d); want junk and nothing held", first[0], big[0], n, held)
	}
	if v := s.Take(1); &v[0] == &first[0] || v[0] != 0 {
		t.Fatal("a poisoned chunk was handed out again")
	}
}

// held is a Rewinder that holds n bytes and counts its rewinds.
type held struct{ n, rewinds int }

func (h *held) Rewind() int { h.rewinds++; return h.n }

// TestStockKeepsWithinCap: Give rewinds every item it is given, keeps one
// that then holds at most the cap and drops a larger one, and counts both
// under the stock's name — shared by every stock of that name — and, while
// Poisoning, the poisoned gives too.
func TestStockKeepsWithinCap(t *testing.T) {
	s := NewStock("core.test", 100, func() *held { return new(held) })
	twin := NewStock("core.test", 100, func() *held { return new(held) })
	small, big := &held{n: 100}, &held{n: 101}
	s.Give(small)
	PoisonRecycled(true)
	twin.Give(big)
	PoisonRecycled(false)
	if small.rewinds != 1 || big.rewinds != 1 {
		t.Fatalf("rewinds %d, %d; want one each", small.rewinds, big.rewinds)
	}
	if c := StockCounts()["core.test"]; c != (StockCount{Kept: 1, Dropped: 1, Poisoned: 1}) {
		t.Fatalf("counts %+v", c)
	}
	if x := twin.Take(); x == big {
		t.Fatal("an item over the cap was kept")
	}
}
