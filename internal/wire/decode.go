package wire

import (
	"errors"
	"fmt"

	"safetsa/internal/core"
)

// ErrUnsupportedVersion marks a clean version-negotiation failure: the
// stream is intact and self-describing, but the consumer does not speak
// its wire version (or its adaptive model revision). It is distinct
// from ErrMalformed so a fleet can distinguish "upgrade me" from
// "hostile bytes".
var ErrUnsupportedVersion = errors.New("wire: unsupported wire version")

// DecodeOptions carries per-decode negotiation state.
type DecodeOptions struct {
	// Dict supplies the shared dictionary for dictionary-bearing v2
	// streams. A stream that names a dictionary id other than Dict's
	// (or names one when Dict is nil) is rejected before any symbol is
	// decoded.
	Dict *Dictionary
}

// DecodeModule reads a SafeTSA distribution unit of any supported wire
// version. Every symbol is decoded against the alphabet the preceding
// context allows, so the result is always a well-formed module (or an
// error) — in particular, no operand can name a register that is not in
// scope on the required plane, and the required plane is the one
// core.Module.Signature implies for the opcode. The residual checks are
// the trivial counter comparisons of the paper, over the symbol tables
// before any body, by core.Module.DeriveTables, which also derives what
// the tables do not carry: layouts, dispatch tables and native bindings.
// A body's name, method and
// signature are its claim's (decoder.decodeFunc), so no per-body link
// rule is left to run.
func DecodeModule(data []byte) (*core.Module, error) {
	return DecodeModuleOpts(data, DecodeOptions{})
}

// DecodeModuleOpts is DecodeModule with explicit negotiation options.
func DecodeModuleOpts(data []byte, o DecodeOptions) (*core.Module, error) {
	return decodeUnit(data, o, false, false)
}

// DecodeModuleV1 decodes with the original fixed-probability code only,
// behaving like a consumer that predates the adaptive model: a v2
// stream is rejected with a clean ErrUnsupportedVersion, never a parse
// error or panic.
func DecodeModuleV1(data []byte) (*core.Module, error) {
	return decodeUnit(data, DecodeOptions{}, true, false)
}

// DecodeVerified decodes a distribution unit and admits every function
// through the module verifier as it is decoded — the full consumer-side
// admission check, the same rule in the same order as
// DecodeVerifiedStream. Loader caches call this exactly once per unit;
// the returned module is safe to share read-only between concurrent
// execution sessions (see interp.LoadTrusted).
func DecodeVerified(data []byte) (*core.Module, error) {
	return DecodeVerifiedOpts(data, DecodeOptions{})
}

// DecodeVerifiedOpts is DecodeVerified with explicit negotiation options.
func DecodeVerifiedOpts(data []byte, o DecodeOptions) (*core.Module, error) {
	return decodeUnit(data, o, false, true)
}

// decodeUnit is the cursor drained to the end in one call: the same
// open, the same pull, the same closing check a stream's consumer spreads
// over a session.
func decodeUnit(data []byte, o DecodeOptions, v1Only, verify bool) (*core.Module, error) {
	su, err := openUnit(byteSource{data: data}, o, nil, v1Only, verify)
	if err != nil {
		return nil, err
	}
	if err := su.Wait(); err != nil {
		return nil, err
	}
	return su.Mod, nil
}

// Container is what a unit's container header says: its wire version
// (1 or 2) and, for v2, the model revision, whether a shared dictionary
// primes the model, and the length of the range-coded payload after the
// header. A v1 unit's payload is whatever follows its magic.
type Container struct {
	Version int
	Model   int
	Dict    bool
	Payload int
}

// String is the container line safetsadump prints above a unit's types.
func (c Container) String() string {
	if c.Version == 1 {
		return fmt.Sprintf("wire v1 (STS%c), %d payload bytes", versionV1, c.Payload)
	}
	dict := ""
	if c.Dict {
		dict = ", shared dictionary"
	}
	return fmt.Sprintf("wire v2 (STS%c), model revision %d%s, %d payload bytes", versionV2, c.Model, dict, c.Payload)
}

// ReadContainer reads the container header of a distribution unit, and
// refuses a header DecodeModule refuses; a dictionary it names is not
// looked for.
func ReadContainer(data []byte) (Container, error) {
	src := byteSource{data: data}
	c, _, err := readContainer(&src, false)
	if c.Version == 1 {
		c.Payload = len(data) - int(src.offset())
	}
	return c, err
}

// readContainer parses the container header from the unit's byte source:
// for v2 the model byte, the model revision, the dictionary id (returned,
// when the model byte flags one) and the payload length. v1Only models a
// fixed-code-only consumer.
func readContainer(src *byteSource, v1Only bool) (c Container, id [8]byte, err error) {
	var hdr [4]byte
	for i := range hdr {
		b, err := src.ReadByte()
		if err != nil {
			return c, id, malformedf("stream truncated")
		}
		hdr[i] = b
	}
	if hdr[0] != 'S' || hdr[1] != 'T' || hdr[2] != 'S' {
		return c, id, malformedf("bad magic")
	}
	switch hdr[3] {
	case versionV1:
		c.Version = 1
		return c, id, nil
	case versionV2:
		if v1Only {
			return c, id, fmt.Errorf("%w: stream is wire v2, this consumer speaks only v1", ErrUnsupportedVersion)
		}
		mb, err := src.ReadByte()
		if err != nil {
			return c, id, malformedf("stream truncated")
		}
		if mb&7 != 0 {
			return c, id, fmt.Errorf("%w: adaptive model revision %d", ErrUnsupportedVersion, mb&7)
		}
		if mb&^byte(7|dictFlag) != 0 {
			return c, id, malformedf("reserved model-byte bits set")
		}
		rev, err := src.ReadByte()
		if err != nil {
			return c, id, malformedf("stream truncated")
		}
		if rev != modelAdaptive {
			return c, id, fmt.Errorf("%w: adaptive model revision %d", ErrUnsupportedVersion, rev)
		}
		c.Version, c.Model, c.Dict = 2, modelAdaptive, mb&dictFlag != 0
		if c.Dict {
			for i := range id {
				b, err := src.ReadByte()
				if err != nil {
					return c, id, malformedf("stream truncated")
				}
				id[i] = b
			}
		}
		plen, err := readLEB(src)
		if err != nil {
			return c, id, err
		}
		if plen > 1<<31 {
			return c, id, malformedf("payload length too large")
		}
		c.Payload = int(plen)
		return c, id, nil
	default:
		return c, id, fmt.Errorf("%w: version byte %q", ErrUnsupportedVersion, hdr[3])
	}
}

// newStreamReader parses the container header from the unit's byte source
// and returns the matching symbol reader; a v2 reader's model is
// made in mdl's memory when mdl is not nil. v1Only models a
// fixed-code-only consumer.
func newStreamReader(src *byteSource, o DecodeOptions, mdl *model, v1Only bool) (symReader, error) {
	c, id, err := readContainer(src, v1Only)
	if err != nil {
		return nil, err
	}
	if c.Version == 1 {
		return newBitReader(src), nil
	}
	var dict *Dictionary
	if c.Dict {
		if o.Dict == nil {
			return nil, fmt.Errorf("%w: stream requires shared dictionary %x, none loaded", ErrUnsupportedVersion, id)
		}
		if o.Dict.ID != id {
			return nil, fmt.Errorf("%w: stream requires shared dictionary %x, have %x", ErrUnsupportedVersion, id, o.Dict.ID)
		}
		dict = o.Dict
	}
	return newACReader(src, dict, int64(c.Payload), mdl)
}

// decodeHead reads the symbol tables and runs the static half of
// admission over them, before any function body is decoded: it derives
// what the tables do not carry — layouts, member lists, dispatch tables,
// native bindings — and runs the residual cross-table checks that
// context-restricted alphabets cannot express structurally (the paper's
// "trivial counter comparisons").
func (d *decoder) decodeHead(r symReader) error {
	d.r, d.m = r, &core.Module{Types: core.NewTypeTable()}
	err := d.decodeTables()
	if !d.lent {
		// Only a lent arena keeps its scratch for the next unit.
		d.fieldBuf, d.methodBuf, d.classBuf, d.indexBuf = nil, nil, nil, nil
	}
	if err != nil {
		return err
	}
	if d.adm, err = d.m.DeriveTables(&d.indices); err != nil {
		return malformedf("inconsistent tables: %v", err)
	}
	d.nFuncs = d.adm.NumFuncs()
	return nil
}

type decoder struct {
	r symReader
	m *core.Module
	// Set by decodeHead: the function count the body rule gives the
	// tables, and the admission the verified tables grant those functions.
	nFuncs int
	adm    *core.Admission
	// verify admits each item of a body as it is decoded, through the
	// rule set of the body being decoded (core.Rules); false is
	// DecodeModule's decoding alone.
	verify bool
	rules  core.Rules

	// The memory bodies are decoded into, which is the unit's: the
	// cursor's own arena, or one its caller lent it.
	*Arena
	lent bool
}

// retire drops what only decoding another body would use, once the last
// one is admitted: the admission, a v2 reader's adaptive model and string
// table and — for a cursor in an arena of its own, which is the unit's —
// the per-function scratch. A cursor over a resident unit lives as long as the unit does
// and would pin them; what the closing check (end) reads stays. A lent
// arena keeps its scratch, which goes with it to the next cursor.
func (d *decoder) retire() {
	d.adm = nil
	if ac, ok := d.r.(*acReader); ok {
		ac.mdl, ac.buf, ac.seen = nil, nil, nil
	}
	if !d.lent {
		d.dropScratch()
	}
}

func (d *decoder) typeRef() (core.TypeID, error) {
	n := len(d.m.Types.ByID) - 1
	v, err := d.r.symbol(n)
	if err != nil {
		return core.NoType, err
	}
	return core.TypeID(v + 1), nil
}

func (d *decoder) refTypeRef() (core.TypeID, error) {
	t, err := d.typeRef()
	if err != nil {
		return t, err
	}
	if !d.m.Types.IsRefType(t) {
		return t, malformedf("expected a reference type, got %s", d.m.Types.Describe(t))
	}
	return t, nil
}

const maxCount = 1 << 22 // defensive bound on table and list sizes

func (d *decoder) count(what string) (int, error) {
	v, err := d.r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxCount {
		return 0, malformedf("%s count too large", what)
	}
	return int(v), nil
}

// decodeTables reads the tables the head carries. The class list is the
// unit classes in type order, each class definition made as its type is
// read; everything else the tables do not carry is derived by
// core.Module.DeriveTables.
func (d *decoder) decodeTables() error {
	tt := d.m.Types
	r := d.r
	r.setProd(prodTables)

	nTypes, err := d.count("type")
	if err != nil {
		return err
	}
	classes := d.classBuf[:0]
	for i := 0; i < nTypes; i++ {
		isArray, err := r.bit()
		if err != nil {
			return err
		}
		if isArray {
			elem, err := d.typeRef()
			if err != nil {
				return err
			}
			et := tt.MustGet(elem)
			if et.Kind == core.TSafeRef || et.Kind == core.TSafeIndex ||
				et.Kind == core.TVoid || et.Kind == core.TMem {
				return malformedf("array of non-value type")
			}
			tt.ArrayOf(elem)
			continue
		}
		name, err := r.str()
		if err != nil {
			return err
		}
		super, err := d.typeRef()
		if err != nil {
			return err
		}
		st := tt.MustGet(super)
		if st.Kind != core.TClass {
			return malformedf("class %s extends a non-class type", name)
		}
		if tt.Class(name) != core.NoType {
			return malformedf("class %s redeclared", name)
		}
		cd := d.classes.One()
		cd.Type, cd.Super = tt.AddClass(name, super), super
		classes = append(classes, cd)
	}
	d.m.Classes = d.classVec.Keep(classes)
	clear(classes)
	d.classBuf = classes[:0]

	// Each table is collected in the arena's scratch and kept at the
	// length it turned out to have: a declared count sizes nothing.
	nFields, err := d.count("field")
	if err != nil {
		return err
	}
	fields := d.fieldBuf[:0]
	for i := 0; i < nFields; i++ {
		var fr core.FieldRef
		if fr.Owner, err = d.refTypeRef(); err != nil {
			return err
		}
		if fr.Name, err = r.str(); err != nil {
			return err
		}
		if fr.Type, err = d.typeRef(); err != nil {
			return err
		}
		ft := tt.MustGet(fr.Type)
		if ft.Kind == core.TSafeRef || ft.Kind == core.TSafeIndex ||
			ft.Kind == core.TVoid || ft.Kind == core.TMem {
			return malformedf("field %s has a non-value type", fr.Name)
		}
		if fr.Static, err = r.bit(); err != nil {
			return err
		}
		fields = append(fields, fr)
	}
	d.m.Fields = d.fields.Keep(fields)
	clear(fields)
	d.fieldBuf = fields[:0]

	nMethods, err := d.count("method")
	if err != nil {
		return err
	}
	methods := d.methodBuf[:0]
	for i := 0; i < nMethods; i++ {
		var mr core.MethodRef
		if mr.Owner, err = d.refTypeRef(); err != nil {
			return err
		}
		// An imported method is a symbol of the host library's alphabet
		// of its owner's methods, and the entry the host library's.
		if n := core.ImportedMethods(mr.Owner); n > 0 {
			s, err := r.symbol(n)
			if err != nil {
				return err
			}
			methods = append(methods, core.ImportedMethod(mr.Owner, s))
			continue
		}
		if mr.Name, err = r.str(); err != nil {
			return err
		}
		np, err := d.count("parameter")
		if err != nil {
			return err
		}
		ps := d.paramBuf[:0]
		for j := 0; j < np; j++ {
			p, err := d.typeRef()
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
		mr.Params, d.paramBuf = d.types.Keep(ps), ps[:0]
		if mr.Result, err = d.typeRef(); err != nil {
			return err
		}
		if mr.Static, err = r.bit(); err != nil {
			return err
		}
		if mr.IsCtor, err = r.bit(); err != nil {
			return err
		}
		methods = append(methods, mr)
	}
	d.m.Methods = d.methods.Keep(methods)
	clear(methods)
	d.methodBuf = methods[:0]

	// Which classes have a static initializer: the body rule numbers them
	// (DeriveTables).
	inits := d.indexBuf[:0]
	for range d.m.Classes {
		has, err := r.bit()
		if err != nil {
			return err
		}
		si := int32(-1)
		if has {
			si = 0
		}
		inits = append(inits, si)
	}
	d.m.StaticInit, d.indexBuf = d.indices.Keep(inits), inits[:0]
	return nil
}

// decodeFunc reads function j < nFuncs in three phases and reconstructs
// its structure. A body's claim is not on the wire: it is the claim the
// body rule makes of index j (core.Admission.Claim), which is all a
// core.Func holds of its identity (its name and signature are derived
// from it), so a body's link holds by construction, and every index below
// the function count is claimed.
func (d *decoder) decodeFunc(j int) (*core.Func, error) {
	r := d.r
	claim, _ := d.adm.Claim(j)
	// The body is carved from the arena, its value table built in the
	// arena's scratch until it is kept at its exact length.
	f := d.funcs.One()
	f.Begin(claim, d.vals)
	d.f, d.rules = f, d.adm.Rules(f, &d.rf.pos)
	var err error

	// Phase 1: CST productions; blocks materialize in order.
	r.setProd(prodCST)
	d.blks, d.kids = d.blks[:0], d.kids[:0]
	f.Body, err = d.decodeCST(0, cstRoot)
	if err != nil {
		return nil, err
	}
	f.Blocks = d.blockVec.Keep(d.blks)
	// Structural replay: edges, dominators, reference blocks.
	if err := linkShape(f, d); err != nil {
		return nil, err
	}
	f.FinishIn(&d.blockVec)

	// Phase 2: block contents in the canonical CST order.
	d.rf.reset(len(d.m.Types.ByID), 0)
	d.lims.reset(len(f.Blocks))
	if err := d.decodeBlocks(f.Body, nil); err != nil {
		return nil, err
	}

	// Phase 3: phi operands, then CST value references, each admitted
	// as it is read when verifying.
	r.setProd(prodRefs)
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			phi.Args = d.args.Take(len(b.Preds))
			if d.verify {
				if _, err := d.rules.Phi(b, phi); err != nil {
					return nil, malformedf("%v", err)
				}
			}
			for k := range phi.Args {
				e := b.Preds[k]
				limit := d.lims.of(b, k)
				v, err := d.decodeRef(e.From, phi.Plane(), limit)
				if err != nil {
					return nil, err
				}
				phi.Args[k] = v
				if d.verify {
					if err := d.rules.PhiOperand(b, phi, k, limit); err != nil {
						return nil, malformedf("%v", err)
					}
				}
			}
		}
	}
	if err := d.decodeCSTRefs(f.Body); err != nil {
		return nil, err
	}
	d.vals = f.KeepValues(&d.instrVec)
	return f, nil
}

// decodeCST reads the subtree encodeCST wrote, its root's kind decided in
// context ctx.
func (d *decoder) decodeCST(depth, ctx int) (*core.CSTNode, error) {
	if depth > core.MaxCSTDepth {
		return nil, malformedf("control structure tree too deep")
	}
	kind, err := d.r.cstKind(ctx)
	if err != nil {
		return nil, err
	}
	n := d.nodes.One()
	n.Kind = core.CSTKind(kind)
	// A node's children are collected on d.kids above base, then kept at
	// their exact number: nk below is only what the stream declares.
	base, nk := len(d.kids), 0
	switch n.Kind {
	case core.CSeq:
		if nk, err = d.count("CST child"); err != nil {
			return nil, err
		}
	case core.CBlock:
		n.Block = d.blocks.One()
		n.Block.Index = len(d.blks)
		d.blks = append(d.blks, n.Block)
	case core.CBreak, core.CContinue, core.CThrow:
	case core.CIf:
		hasElse, err := d.r.bit()
		if err != nil {
			return nil, err
		}
		nk = 1
		if hasElse {
			nk = 2
		}
	case core.CWhile, core.CDoWhile, core.CTry:
		nk = 2
	case core.CReturn:
		hasVal, err := d.r.bit()
		if err != nil {
			return nil, err
		}
		if hasVal {
			n.Val = core.ValueID(-1) // placeholder until phase 3
		}
	default:
		return nil, malformedf("unknown CST production %d", kind)
	}
	// The kids' contexts: a sequence's first child, then each after its
	// sibling; an if's then and else; a while's, do-while's or try's two.
	kidCtx := cstFirst
	switch n.Kind {
	case core.CIf:
		kidCtx = cstThen
	case core.CWhile, core.CDoWhile, core.CTry:
		kidCtx = cstKids(n.Kind)
	}
	for i := 0; i < nk; i++ {
		k, err := d.decodeCST(depth+1, kidCtx)
		if err != nil {
			return nil, err
		}
		d.kids = append(d.kids, k)
		if n.Kind == core.CSeq {
			kidCtx = cstAfter + int(k.Kind)
		} else {
			kidCtx++
		}
	}
	n.Kids = d.nodeVec.Keep(d.kids[base:])
	d.kids = d.kids[:base]
	return n, nil
}
