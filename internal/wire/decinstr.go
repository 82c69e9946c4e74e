package wire

import (
	"safetsa/internal/core"
)

// funcDecoder decodes the instruction phases of one function.
type funcDecoder struct {
	d   *decoder
	f   *core.Func
	rf  *regFile
	pos map[*core.Instr]int
	// handler stack for exception-edge registration during the phase-2
	// walk (sites register in program order, as on the producer side).
	handlers []*core.Block
}

func (fd *funcDecoder) innermostHandler() *core.Block {
	if len(fd.handlers) == 0 {
		return nil
	}
	return fd.handlers[len(fd.handlers)-1]
}

// decodeBlocks walks the CST in transmission order decoding each block's
// phi types and instructions, maintaining the try context so that
// potentially-throwing instructions and throw nodes register their
// implicit exception edges exactly as the producer did.
func (fd *funcDecoder) decodeBlocks(n *core.CSTNode) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case core.CBlock:
		return fd.decodeBlock(n.Block)
	case core.CThrow:
		if h := fd.innermostHandler(); h != nil {
			edge := len(h.Preds)
			h.Preds = append(h.Preds, core.Pred{From: n.At})
			fd.f.ThrowEdge[n] = edge
			fd.f.ThrowHandler[n] = h
		}
		return nil
	case core.CTry:
		fd.handlers = append(fd.handlers, n.Handler)
		if err := fd.decodeBlocks(n.Kids[0]); err != nil {
			return err
		}
		fd.handlers = fd.handlers[:len(fd.handlers)-1]
		return fd.decodeBlocks(n.Kids[1])
	default:
		for _, k := range n.Kids {
			if err := fd.decodeBlocks(k); err != nil {
				return err
			}
		}
		return nil
	}
}

func (fd *funcDecoder) decodeBlock(b *core.Block) error {
	d := fd.d
	tt := d.m.Types
	d.r.setProd(prodBlock)
	nPhis, err := d.count("phi")
	if err != nil {
		return err
	}
	if nPhis > 0 && len(b.Preds) == 0 {
		// A phi operand is a per-incoming-edge reference; a block with no
		// predecessors offers no edge alphabet to draw from, so the
		// spelling is inadmissible (the verifier would reject it too, but
		// wire admission must not produce unverifiable modules at all).
		return malformedf("phis in a block with no predecessors")
	}
	if b == fd.f.Entry {
		// Re-create the untransmitted parameter pre-loads from the
		// signature.
		for i, pt := range fd.f.Params {
			in := &core.Instr{Op: core.OpParam, Type: pt, Aux: int32(i), Blk: b}
			fd.f.Define(in)
			b.Code = append(b.Code, in)
			fd.rf.add(b, in, i+1)
			fd.pos[in] = i + 1
		}
	}
	for i := 0; i < nPhis; i++ {
		t, err := d.typeRef()
		if err != nil {
			return err
		}
		pt := tt.MustGet(t)
		if pt.Kind == core.TVoid || pt.Kind == core.TMem || pt.Kind == core.TSafeIndex {
			return malformedf("phi on plane %s", tt.Describe(t))
		}
		phi := &core.Instr{Op: core.OpPhi, Type: t, Blk: b}
		fd.f.Define(phi)
		b.Phis = append(b.Phis, phi)
		fd.rf.add(b, phi, 0)
		fd.pos[phi] = 0
	}
	nCode, err := d.count("instruction")
	if err != nil {
		return err
	}
	base := len(b.Code) // parameter pre-loads already in place for entry
	for i := 0; i < nCode; i++ {
		p := base + i + 1
		in, err := fd.decodeInstr(b)
		if err != nil {
			return err
		}
		in.Blk = b
		if in.Type != tt.Void {
			fd.f.Define(in)
		}
		b.Code = append(b.Code, in)
		fd.rf.add(b, in, p)
		fd.pos[in] = p
		if in.Op.CanThrow() {
			if h := fd.innermostHandler(); h != nil {
				edge := len(h.Preds)
				h.Preds = append(h.Preds, core.Pred{From: b, Site: in})
				fd.f.ExcEdge[in] = edge
				fd.f.HandlerOf[in] = h
			}
		}
	}
	return nil
}

// decodeRef reads an (l, r) reference used from block b at intra-block
// position p. The alphabets are derived from the register file, so any
// successfully decoded reference names a value that structurally
// dominates the use — referential integrity without verification.
func (fd *funcDecoder) decodeRef(b *core.Block, plane core.PlaneKey) (core.ValueID, error) {
	l, err := fd.d.r.symbol(b.Depth + 1)
	if err != nil {
		return core.NoValue, err
	}
	def := b
	for i := 0; i < l; i++ {
		def = def.IDom
	}
	n := fd.rf.countBefore(def, plane, -1)
	r, err := fd.d.r.symbol(n)
	if err != nil {
		return core.NoValue, err
	}
	v := fd.rf.at(def, plane, r, -1)
	if v == core.NoValue {
		return core.NoValue, malformedf("register %d-%d empty", l, r)
	}
	return v, nil
}

// decodeEdgeRef reads a phi operand relative to an edge source, windowed
// to the registers before the throwing site on exception edges.
func (fd *funcDecoder) decodeEdgeRef(edge core.Pred, plane core.PlaneKey) (core.ValueID, error) {
	from := edge.From
	l, err := fd.d.r.symbol(from.Depth + 1)
	if err != nil {
		return core.NoValue, err
	}
	def := from
	for i := 0; i < l; i++ {
		def = def.IDom
	}
	limit := -1
	if l == 0 && edge.Site != nil {
		limit = fd.pos[edge.Site]
	}
	n := fd.rf.countBefore(def, plane, limit)
	r, err := fd.d.r.symbol(n)
	if err != nil {
		return core.NoValue, err
	}
	v := fd.rf.at(def, plane, r, limit)
	if v == core.NoValue {
		return core.NoValue, malformedf("phi operand register %d-%d empty", l, r)
	}
	return v, nil
}

func (fd *funcDecoder) decodeCSTRefs(n *core.CSTNode) error {
	if n == nil {
		return nil
	}
	// A return's Val is a placeholder from phase 1 when it carries one.
	slot, plane, err := fd.d.m.RefPlane(fd.f, n)
	if err != nil {
		return malformedf("%v", err)
	}
	if slot != nil {
		if *slot, err = fd.decodeRef(n.At, plane); err != nil {
			return err
		}
	}
	for _, k := range n.Kids {
		if err := fd.decodeCSTRefs(k); err != nil {
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
// its side conditions is malformed.
func (fd *funcDecoder) decodeInstr(b *core.Block) (*core.Instr, error) {
	d := fd.d
	r := d.r
	r.setProd(prodOp)
	opv, err := r.symbol(core.NumOps)
	if err != nil {
		return nil, err
	}
	// Payload symbols adapt in the opcode's own production context,
	// mirroring encodeInstr.
	r.setProd(opv)
	in := &core.Instr{Op: core.Op(opv)}
	if err := d.decodeImmediates(in); err != nil {
		return nil, err
	}
	sig, err := d.m.Signature(fd.f, in)
	if err != nil {
		return nil, malformedf("%s: %v", in.Op, err)
	}
	if n := sig.NumOperands(); n > 0 {
		in.Args = make([]core.ValueID, n)
		for i := range in.Args {
			if in.Args[i], err = fd.decodeRef(b, sig.Operand(i, in.Args[0])); err != nil {
				return nil, err
			}
		}
	}
	in.Type = sig.Result
	if sig.BindResult {
		in.Bind = in.Args[0]
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
