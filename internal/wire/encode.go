package wire

import (
	"fmt"
	"unsafe"

	"safetsa/internal/core"
)

// Distribution units open with "STS" plus a version byte: 'D' is the
// fixed-probability code (its first revision, 'A', spelled each
// function's name and signature, and gave the historical magic "STSA";
// 'B' spelled the layouts, member lists, dispatch tables and host
// operation numbers a consumer derives; 'C' spelled each imported
// method's name and signature, the body indices, the entry method, the
// class list and the function count), '2' the adaptive model of model.go.
const (
	versionV1 = 'D'
	versionV2 = '2'

	// modelAdaptive is the only model revision the '2' container
	// currently defines (revision 1 spelled each function's name and
	// signature, revision 2 decided a symbol's bits by position alone,
	// revision 3 moved every probability at one rate, decided an opcode
	// apart from the one before it and spelled every string, revision 4
	// spelled what a consumer derives of the tables, as v1's 'B' did, and
	// coded a count in 4-bit groups, revision 5 spelled what v1's 'C' did,
	// revision 6 decided every CST kind in one context and a block's phi
	// count with its instruction count, and revision 7 started every
	// probability at 1/2); dictFlag marks a dictionary-bearing stream.
	//
	// Revisions 1 to 7 were the model byte's three low bits. From revision
	// 8 on those bits are 0 and the revision is the byte after the model
	// byte: a consumer of revision 7 refuses it as ErrUnsupportedVersion,
	// "upgrade me", before it reads any byte past the model byte.
	modelAdaptive = 8
	dictFlag      = 8
)

var magic = [4]byte{'S', 'T', 'S', versionV1}

// EncodeModule externalizes a SafeTSA module with the v1 fixed-
// probability code. It panics only on internally inconsistent modules
// (an unverified module must not reach the encoder); the returned
// bytes decode to an equivalent module.
func EncodeModule(m *core.Module) []byte {
	w := &bitWriter{}
	for _, b := range magic {
		w.writeBits(uint64(b), 8)
	}
	e := &encoder{m: m, w: w}
	e.encodeAll()
	return w.bytes()
}

// EncodeModuleV2 externalizes a module with wire format v2: the same
// symbol stream as v1, range-coded under per-production adaptive
// models, optionally primed by a shared dictionary. The container is
// "STS2", a model byte, the model revision, the dictionary id when one is
// used, the payload length, and the range-coded payload — the explicit
// length plus the coder's byte-count symmetry give v2 streams exactly one
// spelling, like v1.
func EncodeModuleV2(m *core.Module, dict *Dictionary) []byte {
	return new(Encoder).EncodeV2(m, dict)
}

// Encoder is the v2 encoder's memory, kept from one module to the next:
// the adaptive model, the range coder's and the container's byte buffers,
// the string table's index, the register file and the per-function
// tables. It encodes one module at a time; the zero Encoder is ready to
// use.
type Encoder struct {
	mdl  model
	rc   rcEncoder
	aw   acWriter
	enc  encoder
	out  []byte
	seen map[string]int
	// seenPeak is the most strings seen has indexed: a cleared map keeps
	// the room it grew.
	seenPeak int
}

// EncodeV2 is EncodeModuleV2 in e's memory. The bytes it returns are e's
// and the next call overwrites them: a caller that keeps them copies them.
func (e *Encoder) EncodeV2(m *core.Module, dict *Dictionary) []byte {
	if e.seen == nil {
		e.seen = make(map[string]int)
	}
	e.rc = rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: e.rc.out[:0]}
	e.aw = acWriter{mdl: newModel(dict, &e.mdl), rc: &e.rc, seen: e.seen}
	e.enc.m, e.enc.w = m, &e.aw
	e.enc.encodeAll()
	payload := e.aw.finish()
	e.enc.m, e.enc.w, e.enc.f = nil, nil, nil
	clear(e.enc.blocks[:cap(e.enc.blocks)])
	// The index keeps no module's strings.
	e.seenPeak = max(e.seenPeak, len(e.seen))
	clear(e.seen)
	e.aw.seen = nil

	out := append(e.out[:0], 'S', 'T', 'S', versionV2)
	mb := byte(0)
	if dict != nil {
		mb |= dictFlag
	}
	out = append(out, mb, modelAdaptive)
	if dict != nil {
		out = append(out, dict.ID[:]...)
	}
	out = appendLEB(out, uint64(len(payload)))
	e.out = append(out, payload...)
	return e.out
}

// Rewind ends e's last encoding and reports the bytes e keeps between
// modules. While core.Poisoning it first overwrites the byte buffers with
// junk, so that a caller that kept the bytes of an earlier EncodeV2
// without copying them reads junk.
func (e *Encoder) Rewind() int {
	if core.Poisoning() {
		core.Poison(e.out[:cap(e.out)])
		core.Poison(e.rc.out[:cap(e.rc.out)])
	}
	n := int(unsafe.Sizeof(*e)) + cap(e.rc.out) + cap(e.out) +
		e.enc.lims.bytes() + 8*cap(e.enc.blocks) + e.enc.rf.bytes() +
		seenEntryBytes*e.seenPeak
	return n
}

// seenEntryBytes is what Encoder.seen holds per string it has room for:
// a string header and an int, with the map's slack.
const seenEntryBytes = 48

type encoder struct {
	m *core.Module
	w symWriter

	// Per function: the function, its register file as filled so far
	// (which places every definition in its block), the limit of each
	// exception edge, and its blocks in CST order. All are filled in
	// transmission order, as the decoder fills its own.
	f      *core.Func
	rf     regFile
	lims   edgeLimits
	blocks []*core.Block
}

func (e *encoder) encodeAll() {
	if places := e.encodeTables(); len(e.m.Funcs) != places {
		panic(fmt.Sprintf("wire: %d bodies for the %d the tables place", len(e.m.Funcs), places))
	}
	for j, f := range e.m.Funcs {
		e.checkClaim(j, f)
		e.encodeFunc(f)
	}
}

func (e *encoder) typeRef(t core.TypeID) {
	n := len(e.m.Types.ByID) - 1
	if t <= 0 || int(t) > n {
		panic(fmt.Sprintf("wire: type id %d out of table range", t))
	}
	e.w.symbol(int(t)-1, n)
}

// encodeTables writes the mutable part of the type table (the implicit
// prefix is regenerated by the consumer and cannot be corrupted), the
// field and method tables, and which classes have a static initializer.
// It writes nothing a consumer derives from them: no slot, no storage
// size, no member list, no dispatch table or slot, no host operation
// number (core.Module.DeriveTables), and no class list, body index,
// entry method or function count (the body rule, core.Module.PlaceBodies).
// An imported method is its owner and its symbol in the host library's
// alphabet of the owner's methods (core.ImportedMethods). It returns the
// number of bodies the tables place.
func (e *encoder) encodeTables() (places int) {
	tt := e.m.Types
	w := e.w
	w.setProd(prodTables)

	// User-introduced type-table entries, in creation order. Safe-ref
	// and safe-index shadows are skipped: the consumer recreates them
	// as each base type is introduced.
	var entries []*core.Type
	for i := tt.ImplicitLen; i < len(tt.ByID); i++ {
		t := tt.ByID[i]
		if t.Kind == core.TClass || t.Kind == core.TArray {
			entries = append(entries, t)
		}
	}
	w.uvarint(uint64(len(entries)))
	classes := 0
	for _, t := range entries {
		// References inside the type section use the alphabet of the
		// table as it existed when this entry was created, which is
		// exactly the consumer's table state at this point.
		n := int(t.ID) - 1
		if t.Kind == core.TClass {
			w.bit(false)
			w.str(t.Name)
			w.symbol(int(t.Super)-1, n)
			// The class list is the unit classes in type order.
			if classes >= len(e.m.Classes) || e.m.Classes[classes].Type != t.ID {
				panic(fmt.Sprintf("wire: class %s is not class definition %d", t.Name, classes))
			}
			classes++
		} else {
			w.bit(true)
			w.symbol(int(t.Elem)-1, n)
		}
	}
	if classes != len(e.m.Classes) {
		panic(fmt.Sprintf("wire: %d class definitions for %d unit classes", len(e.m.Classes), classes))
	}

	w.uvarint(uint64(len(e.m.Fields)))
	for _, fr := range e.m.Fields {
		e.typeRef(fr.Owner)
		w.str(fr.Name)
		e.typeRef(fr.Type)
		w.bit(fr.Static)
	}

	w.uvarint(uint64(len(e.m.Methods)))
	for i := range e.m.Methods {
		mr := &e.m.Methods[i]
		e.typeRef(mr.Owner)
		if n := core.ImportedMethods(mr.Owner); n > 0 {
			s := core.ImportedSymbol(mr)
			if s < 0 {
				panic(fmt.Sprintf("wire: method %d (%s) is no method of the host library", i, mr.Sig(tt)))
			}
			w.symbol(s, n)
			continue
		}
		places++
		w.str(mr.Name)
		w.uvarint(uint64(len(mr.Params)))
		for _, p := range mr.Params {
			e.typeRef(p)
		}
		e.typeRef(mr.Result)
		w.bit(mr.Static)
		w.bit(mr.IsCtor)
	}

	// One flag per class definition: whether it has a static initializer.
	if len(e.m.StaticInit) != len(e.m.Classes) {
		panic(fmt.Sprintf("wire: %d static-initializer entries for %d classes", len(e.m.StaticInit), len(e.m.Classes)))
	}
	for _, si := range e.m.StaticInit {
		w.bit(si >= 0)
		if si >= 0 {
			places++
		}
	}
	return places
}

// checkClaim panics unless function j is the body its tables claim. A
// body's claim is not written: the body rule places one method's body or
// one class's static initializer at index j, and the consumer takes the
// body's claim, and with it its name and signature, from there. So a body
// whose claim the rule places elsewhere, or nowhere, is a producer bug;
// so is a unit short of a body the rule places, which its consumers would
// wait for.
func (e *encoder) checkClaim(j int, f *core.Func) {
	if e.m.ClaimedIndex(f.Claim) != int32(j) {
		panic(fmt.Sprintf("wire: function %d (%s) is not the body its tables claim", j, e.m.FuncName(f)))
	}
}

// encodeFunc writes one function's body in the three phases of section 7.
func (e *encoder) encodeFunc(f *core.Func) {
	w := e.w

	// Phase 1: the Control Structure Tree as grammar productions.
	w.setProd(prodCST)
	e.encodeCST(f.Body, cstRoot)

	// Phase 2: blocks in CST order; phi types only, then instructions.
	// The parameter pre-loads at the head of the entry block are implied
	// by the signature and are not transmitted (section 5: pre-loading
	// "doesn't correspond to any actual code").
	e.f = f
	e.rf.reset(len(e.m.Types.ByID), f.NumValues()+1)
	rf := &e.rf
	e.blocks = f.AppendCSTBlocks(e.blocks[:0])
	blocks := e.blocks
	for _, b := range blocks {
		// A block's predecessors are all known when the decoder reads its
		// phi count: the normal edges from the tree's shape, and a
		// handler's exception edges from the sites before it.
		w.setProd(phiProd(len(b.Preds)))
		w.uvarint(uint64(len(b.Phis)))
		w.setProd(prodBlock)
		for _, phi := range b.Phis {
			if phi.Bind != core.NoValue {
				panic("wire: safe-index phi is not externalizable")
			}
			e.typeRef(phi.Type)
			rf.add(b, phi, 0)
		}
		code := b.Code
		skip := 0
		if b == f.Entry {
			for skip < len(code) && code[skip].Op == core.OpParam {
				if int(code[skip].Aux) != skip {
					panic("wire: parameter pre-loads out of order")
				}
				rf.add(b, code[skip], skip+1)
				skip++
			}
			if skip != e.m.NumParams(f) {
				panic("wire: entry block does not pre-load every parameter")
			}
		}
		w.uvarint(uint64(len(code) - skip))
		for i := skip; i < len(code); i++ {
			e.encodeInstr(b, code[i], i+1)
			rf.add(b, code[i], i+1)
		}
	}

	// Phase 3: phi operands, then the CST value references. Each site
	// takes its innermost handler's next edge, as the decoder gives it.
	e.lims.reset(len(blocks))
	f.ExcSites(func(s core.ExcSite) { e.lims.add(s.At) }, func(h *core.Block, sites int) {
		if sites != len(h.Preds) {
			panic(fmt.Sprintf("wire: %s: handler block %d has %d exception edges for %d sites", e.m.FuncName(f), h.Index, len(h.Preds), sites))
		}
		e.lims.close(h, sites)
	})
	w.setProd(prodRefs)
	for _, b := range blocks {
		for _, phi := range b.Phis {
			for k, a := range phi.Args {
				// A phi operand is referenced from its edge's source point:
				// the end of the source block, or just before the throwing
				// site of an exception edge.
				e.encodeRef(b.Preds[k].From, e.lims.of(b, k), a, phi.Plane())
			}
		}
	}
	e.encodeCSTRefs(f.Body)
}

// encodeCST writes the subtree at n, whose kind is decided in context ctx.
func (e *encoder) encodeCST(n *core.CSTNode, ctx int) {
	w := e.w
	w.cstKind(int(n.Kind), ctx)
	switch n.Kind {
	case core.CSeq:
		w.uvarint(uint64(len(n.Kids)))
		kid := cstFirst
		for _, k := range n.Kids {
			e.encodeCST(k, kid)
			kid = cstAfter + int(k.Kind)
		}
	case core.CBlock, core.CBreak, core.CContinue, core.CThrow:
		// No payload: blocks are created in order, throw values follow
		// in phase 3.
	case core.CIf:
		w.bit(len(n.Kids) > 1)
		e.encodeCST(n.Kids[0], cstThen)
		if len(n.Kids) > 1 {
			e.encodeCST(n.Kids[1], cstElse)
		}
	case core.CWhile, core.CDoWhile, core.CTry:
		kid := cstKids(n.Kind)
		e.encodeCST(n.Kids[0], kid)
		e.encodeCST(n.Kids[1], kid+1)
	case core.CReturn:
		w.bit(n.Val != core.NoValue)
	default:
		panic("wire: unknown CST node kind")
	}
}

// encodeRef writes the (l, r) pair for using value id on the given plane
// from block from, as far into it as limit (< 0 means end of block).
func (e *encoder) encodeRef(from *core.Block, limit int, id core.ValueID, plane core.PlaneKey) {
	f := e.f
	def := f.Value(id)
	if def == nil {
		panic(fmt.Sprintf("wire: %s: reference to undefined value v%d", e.m.FuncName(f), id))
	}
	if def.Plane() != plane {
		panic(fmt.Sprintf("wire: %s: value v%d is on plane %v, operand wants %v",
			e.m.FuncName(f), id, def.Plane(), plane))
	}
	l := 0
	b := from
	for b != def.Blk {
		b = b.IDom
		l++
		if b == nil {
			panic(fmt.Sprintf("wire: %s: v%d does not dominate its use", e.m.FuncName(f), id))
		}
	}
	if l > 0 {
		limit = -1
	}
	regs := e.rf.window(def.Blk, plane, limit)
	at, _ := e.rf.pos.Of(id)
	r := indexOf(regs, id, at)
	if r < 0 {
		panic(fmt.Sprintf("wire: %s: v%d is not in the register window of its use", e.m.FuncName(f), id))
	}
	e.w.level(l, from.Depth+1)
	e.w.register(r, len(regs))
}

func (e *encoder) encodeCSTRefs(n *core.CSTNode) {
	if n == nil {
		return
	}
	slot, plane, err := e.m.RefPlane(e.f, n)
	if err != nil {
		panic(fmt.Sprintf("wire: %s: %v", e.m.FuncName(e.f), err))
	}
	if slot != nil {
		e.encodeRef(n.At, -1, *slot, plane)
	}
	for _, k := range n.Kids {
		e.encodeCSTRefs(k)
	}
}

// encodeInstr writes one instruction: opcode, immediates (type
// arguments, symbolic references, constants), then one reference per
// operand plane of its core.Signature — the destination register is
// implicit. An instruction that breaks its signature is a producer bug
// and panics, like every other inconsistency the encoder meets.
func (e *encoder) encodeInstr(b *core.Block, in *core.Instr, p int) {
	f := e.f
	sig, err := e.m.Signature(f, in)
	if err == nil && len(in.Args) != sig.NumOperands() {
		err = fmt.Errorf("want %d operands, have %d", sig.NumOperands(), len(in.Args))
	}
	if err == nil && in.Type != sig.Result {
		err = fmt.Errorf("result on plane %s, want %s",
			e.m.Types.Describe(in.Type), e.m.Types.Describe(sig.Result))
	}
	if err != nil {
		panic(fmt.Sprintf("wire: %s: %s is not externalizable: %v", e.m.FuncName(f), in.Op, err))
	}
	w := e.w
	w.opcode(int(in.Op))
	// The payload is coded in the opcode's own production context.
	w.setProd(int(in.Op))
	switch in.Op {
	case core.OpParam:
		w.uvarint(uint64(in.Aux))
	case core.OpConst:
		w.symbol(int(in.Const.Kind)-1, 7)
		switch in.Const.Kind {
		case core.KInt, core.KLong, core.KChar, core.KBool:
			w.svarint(in.Const.I)
		case core.KDouble:
			w.float64bits(in.Const.D)
		case core.KString:
			w.str(in.Const.S)
		case core.KNull:
			e.typeRef(in.Type)
		}
	case core.OpPrim, core.OpXPrim:
		w.symbol(int(in.Prim), core.NumPrimOps)
	case core.OpNullCheck:
		e.typeRef(in.ArgType)
	case core.OpUpcast, core.OpDowncast, core.OpInstanceOf:
		e.typeRef(in.ArgType)
		e.typeRef(in.TypeArg)
	case core.OpIndexCheck, core.OpGetElt, core.OpSetElt, core.OpArrayLen, core.OpNew, core.OpNewArray:
		e.typeRef(in.TypeArg)
	case core.OpGetField, core.OpSetField:
		w.symbol(int(in.Field), len(e.m.Fields))
	case core.OpXCall, core.OpXDispatch:
		w.symbol(int(in.Method), len(e.m.Methods))
	}
	for i, a := range in.Args {
		e.encodeRef(b, p, a, sig.Operand(i, in.Args[0]))
	}
}
