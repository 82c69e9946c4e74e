package wire

import (
	"slices"

	"safetsa/internal/core"
)

// decodeBlocks walks the CST in transmission order decoding each block's
// phi types and instructions, with h the innermost handler (nil outside
// every try), so that potentially-throwing instructions and throw nodes
// take their implicit exception edges exactly as the producer's did.
func (d *decoder) decodeBlocks(n *core.CSTNode, h *core.Block) error {
	switch n.Kind {
	case core.CBlock:
		return d.decodeBlock(n.Block, h)
	case core.CThrow:
		if h != nil {
			h.Preds = append(h.Preds, core.Pred{From: n.At})
			d.lims.add(-1)
		}
		return nil
	case core.CTry:
		if err := d.decodeBlocks(n.Kids[0], n.Handler); err != nil {
			return err
		}
		d.lims.close(n.Handler, len(n.Handler.Preds))
		return d.decodeBlocks(n.Kids[1], h)
	default:
		for _, k := range n.Kids {
			if err := d.decodeBlocks(k, h); err != nil {
				return err
			}
		}
		return nil
	}
}

func (d *decoder) decodeBlock(b, h *core.Block) error {
	f, tt := d.f, d.m.Types
	// Every predecessor of b is known: the normal edges from the tree's
	// shape, and a handler's exception edges from the sites before it.
	d.r.setProd(phiProd(len(b.Preds)))
	nPhis, err := d.count("phi")
	if err != nil {
		return err
	}
	d.r.setProd(prodBlock)
	// A block with no predecessors offers no edge alphabet to draw phi
	// operands from: checked before the phis are read, and by DecodeModule
	// too, which must not produce unverifiable modules at all.
	if err := d.rules.Phis(b, nPhis); err != nil {
		return malformedf("%v", err)
	}
	// Both sections are collected on d.code and kept at the length they
	// turned out to have; nPhis and nCode are only what the stream claims.
	code := d.code[:0]
	if b == f.Entry {
		// Re-create the untransmitted parameter pre-loads from the
		// claim's signature.
		for i := range d.m.NumParams(f) {
			in := d.instrs.One()
			*in = core.Instr{Op: core.OpParam, Type: d.m.Param(f, i), Aux: int32(i), Blk: b}
			f.Define(in)
			code = append(code, in)
			d.rf.add(b, in, i+1)
		}
	}
	base := len(code) // parameter pre-loads already in place for entry
	for i := 0; i < nPhis; i++ {
		t, err := d.typeRef()
		if err != nil {
			return err
		}
		pt := tt.MustGet(t)
		if pt.Kind == core.TVoid || pt.Kind == core.TMem || pt.Kind == core.TSafeIndex {
			return malformedf("phi on plane %s", tt.Describe(t))
		}
		phi := d.instrs.One()
		*phi = core.Instr{Op: core.OpPhi, Type: t, Blk: b}
		f.Define(phi)
		code = append(code, phi)
		d.rf.add(b, phi, 0)
	}
	b.Phis = d.instrVec.Keep(code[base:])
	code = code[:base]
	nCode, err := d.count("instruction")
	if err != nil {
		return err
	}
	for i := 0; i < nCode; i++ {
		p := base + i + 1
		in, err := d.decodeInstr(b, p)
		if err != nil {
			return err
		}
		code = append(code, in)
		d.rf.add(b, in, p)
		if in.Op.CanThrow() {
			if h != nil {
				e := core.Pred{From: b, Site: in}
				h.Preds = append(h.Preds, e)
				d.lims.add(p)
				if d.verify {
					if err := d.rules.ExcEdge(e, p); err != nil {
						return malformedf("%v", err)
					}
				}
			}
		}
	}
	b.Code = d.instrVec.Keep(code)
	d.code = code
	return nil
}

// decodeRef reads an (l, r) reference used from block b: l levels up the
// dominator tree, register r of the plane there, as far as limit (< 0:
// the whole block). The alphabets are derived from the register file, so
// any successfully decoded reference names a value that structurally
// dominates the use — referential integrity without verification.
func (d *decoder) decodeRef(b *core.Block, plane core.PlaneKey, limit int) (core.ValueID, error) {
	l, err := d.r.level(b.Depth + 1)
	if err != nil {
		return core.NoValue, err
	}
	def := b
	for i := 0; i < l; i++ {
		def = def.IDom
	}
	if l > 0 {
		limit = -1
	}
	w := d.rf.window(def, plane, limit)
	r, err := d.r.register(len(w))
	if err != nil {
		return core.NoValue, err
	}
	return w[r].id, nil
}

// edgeLimits is how far into its source block each exception edge's phi
// operands see: the position of the edge's throwing instruction, or -1
// (the whole block) for a throw node's, as a normal edge sees its whole
// source block. A codec keeps each limit as it meets the edge's site in
// transmission order, which is the order of the handler's edges (DESIGN.md
// §10), and lays a handler's out in one run once its try's body is done.
type edgeLimits struct {
	open  []int32 // the sites' limits of the tries being walked, innermost try's last
	lim   []int32 // each closed try's limits in one run
	first []int32 // by block index: where the block's run starts in lim; -1 for none
}

// reset empties l for a body of n blocks.
func (l *edgeLimits) reset(n int) {
	l.open, l.lim = l.open[:0], l.lim[:0]
	l.first = slices.Grow(l.first[:0], n)[:n]
	for i := range l.first {
		l.first[i] = -1
	}
}

// add keeps the limit of the innermost open try's next edge.
func (l *edgeLimits) add(at int) { l.open = append(l.open, int32(at)) }

// close ends the body of the try whose handler is h: its n sites are the
// last added, and their edges all of h's.
func (l *edgeLimits) close(h *core.Block, n int) {
	k := len(l.open) - n
	l.first[h.Index] = int32(len(l.lim))
	l.lim = append(l.lim, l.open[k:]...)
	l.open = l.open[:k]
}

// of is the limit of edge k into block b.
func (l *edgeLimits) of(b *core.Block, k int) int {
	if at := l.first[b.Index]; at >= 0 {
		return int(l.lim[int(at)+k])
	}
	return -1
}

// bytes is what l keeps of its size.
func (l *edgeLimits) bytes() int { return 4 * (cap(l.open) + cap(l.lim) + cap(l.first)) }

func (d *decoder) decodeCSTRefs(n *core.CSTNode) error {
	if n == nil {
		return nil
	}
	// A return's Val is a placeholder from phase 1 when it carries one.
	slot, plane, err := d.m.RefPlane(d.f, n)
	if err != nil {
		return malformedf("%v", err)
	}
	if slot != nil {
		if *slot, err = d.decodeRef(n.At, plane, -1); err != nil {
			return err
		}
		if d.verify {
			if err := d.rules.Ref(n, *slot, plane); err != nil {
				return malformedf("%v", err)
			}
		}
	}
	for _, k := range n.Kids {
		if err := d.decodeCSTRefs(k); err != nil {
			return err
		}
	}
	return nil
}

// decodeInstr mirrors encoder.encodeInstr: opcode, the opcode's
// immediates, then one reference per operand plane of the instruction's
// core.Signature, whose result plane the instruction takes. Operands and
// result are never free to disagree with the rule the verifier checks —
// they are read through it — and a stream whose immediates break one of
// its side conditions is malformed. A verifying decoder then admits the
// instruction, at position p of block b, through that same Signature
// (core.Rules.Code): this is the one place a decoded instruction's
// Signature is computed.
func (d *decoder) decodeInstr(b *core.Block, p int) (*core.Instr, error) {
	r := d.r
	opv, err := r.opcode()
	if err != nil {
		return nil, err
	}
	// Payload symbols adapt in the opcode's own production context,
	// mirroring encodeInstr.
	r.setProd(opv)
	in := d.instrs.One()
	in.Op, in.Blk = core.Op(opv), b
	if err := d.decodeImmediates(in); err != nil {
		return nil, err
	}
	sig, err := d.m.Signature(d.f, in)
	if err != nil {
		return nil, malformedf("%s: %v", in.Op, err)
	}
	if n := sig.NumOperands(); n > 0 {
		in.Args = d.args.Take(n)
		for i := range in.Args {
			if in.Args[i], err = d.decodeRef(b, sig.Operand(i, in.Args[0]), -1); err != nil {
				return nil, err
			}
		}
	}
	in.Type = sig.Result
	if sig.BindResult {
		in.Bind = in.Args[0]
	}
	if in.Type != d.m.Types.Void {
		d.f.Define(in)
	}
	if d.verify {
		if err := d.rules.Code(b, p, in, &sig); err != nil {
			return nil, malformedf("%v", err)
		}
	}
	return in, nil
}

// decodeImmediates reads what an opcode carries besides its operands.
// Every value is drawn from the alphabet of its table, so it is in
// range; whether it is of the right kind is core.Signature's question.
func (d *decoder) decodeImmediates(in *core.Instr) (err error) {
	r := d.r
	var v int
	switch in.Op {
	case core.OpParam:
		v, err = d.count("parameter index")
		in.Aux = int32(v)
	case core.OpConst:
		return d.decodeConst(in)
	case core.OpPrim, core.OpXPrim:
		v, err = r.symbol(core.NumPrimOps)
		in.Prim = core.PrimOp(v)
	case core.OpNullCheck:
		in.ArgType, err = d.typeRef()
	case core.OpUpcast, core.OpDowncast, core.OpInstanceOf:
		if in.ArgType, err = d.typeRef(); err == nil {
			in.TypeArg, err = d.typeRef()
		}
	case core.OpIndexCheck, core.OpGetElt, core.OpSetElt, core.OpArrayLen, core.OpNew, core.OpNewArray:
		in.TypeArg, err = d.typeRef()
	case core.OpGetField, core.OpSetField:
		v, err = r.symbol(len(d.m.Fields))
		in.Field = int32(v)
	case core.OpXCall, core.OpXDispatch:
		v, err = r.symbol(len(d.m.Methods))
		in.Method = int32(v)
	}
	return err
}

// decodeConst reads a constant's kind and payload, normalized to the
// kind's range; a null constant's payload is the type of its plane.
func (d *decoder) decodeConst(in *core.Instr) error {
	r, c := d.r, &in.Const
	kv, err := r.symbol(7)
	if err != nil {
		return err
	}
	c.Kind = core.ConstKind(kv + 1)
	switch c.Kind {
	case core.KInt, core.KChar, core.KLong, core.KBool:
		if c.I, err = r.svarint(); err != nil {
			return err
		}
		switch c.Kind {
		case core.KInt:
			c.I = int64(int32(c.I))
		case core.KChar:
			c.I = int64(uint16(c.I))
		case core.KBool:
			c.I &= 1
		}
	case core.KDouble:
		c.D, err = r.float64bits()
	case core.KString:
		c.S, err = r.str()
	case core.KNull:
		in.Type, err = d.typeRef()
	}
	return err
}
