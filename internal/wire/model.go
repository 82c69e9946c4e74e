package wire

import (
	_ "embed"
	"fmt"
	"math"
	"math/bits"

	"safetsa/internal/core"
)

// Production contexts for the v2 adaptive model. Every opcode is its
// own production; the section-level productions below cover the symbol
// positions that are not governed by a specific opcode. The encoder and
// decoder switch contexts with setProd at identical grammar points, so
// the per-production models adapt in lockstep. The opcode itself is
// decided in no production: its context is the opcode before it (model.ops).
const (
	prodTables = int(core.NumOps) + iota // type/field/method/class tables
	prodCST                              // control structure tree productions
	prodBlock                            // per-block phi types and instruction counts
	prodRefs                             // phase-3 phi operands and CST refs
	numProd

	// A block's phi count is a production of its own, picked by whether
	// the block has one predecessor (most blocks, which have no phi) or
	// several. The two take the productions of the opcodes no instruction
	// has as its payload: OpInvalid, which no admitted instruction is,
	// and OpPhi, which no block's code holds.
	prodPhis     = int(core.OpInvalid)
	prodJoinPhis = int(core.OpPhi)
)

// phiProd is the production of the phi count of a block of npreds
// predecessors.
func phiProd(npreds int) int {
	if npreds >= 2 {
		return prodJoinPhis
	}
	return prodPhis
}

// An opcode is a symbol of the NumOps alphabet, its opBits code bits all
// decided in one prefix tree (opTree) — the tree of the opcode before it
// in its block, or, at a block's start, OpInvalid's, which no admitted
// instruction has.
const opBits = 5

// opBits is bits.Len(NumOps-1): each array length below is negative
// otherwise.
var (
	_ [core.NumOps - 1<<(opBits-1) - 1]struct{}
	_ [1<<opBits - core.NumOps]struct{}
)

type opTree [1<<opBits - 1]uint16

// A CST node's kind is a symbol of the NumCSTKinds alphabet, its cstBits
// code bits decided in the prefix tree (cstTree) of the node's place in
// the tree: the root; a sequence's first child, or a child after a
// sibling of each kind; an if's then or else arm; either kid of a while,
// a do-while or a try.
const cstBits = 4

// cstBits is bits.Len(NumCSTKinds-1).
var (
	_ [core.NumCSTKinds - 1<<(cstBits-1) - 1]struct{}
	_ [1<<cstBits - core.NumCSTKinds]struct{}
)

type cstTree [1<<cstBits - 1]uint16

// The contexts of a CST node's kind: cstAfter+k after a sibling of kind
// k, and kid i of a while, a do-while or a try at cstWhile+i,
// cstDoWhile+i or cstTry+i.
const (
	cstRoot    = 0
	cstFirst   = 1 // a sequence's first child
	cstAfter   = 2
	cstThen    = cstAfter + core.NumCSTKinds
	cstElse    = cstThen + 1
	cstWhile   = cstElse + 1
	cstDoWhile = cstWhile + 2
	cstTry     = cstDoWhile + 2
	numCSTCtx  = cstTry + 2
)

// cstKids is where the contexts of a while's, a do-while's or a try's two
// kids start.
func cstKids(k core.CSTKind) int {
	switch k {
	case core.CWhile:
		return cstWhile
	case core.CDoWhile:
		return cstDoWhile
	}
	return cstTry
}

// prodCtx holds the adaptive bit probabilities for one production: the
// tree contexts of its symbols, standalone flag bits by order of
// appearance, and a count's length bits (cont) and mantissa bits by
// length and position (pay); see acWriter.uvarint.
type prodCtx struct {
	sym  symCtx
	flag [8]uint16
	cont [16]uint16
	pay  [16][4]uint16
}

// Tree contexts. A symbol of an alphabet of n is sent as its
// truncated-binary code of k = bits.Len(n-1) bits, and each code bit is
// decided against a probability picked by the alphabet's width class —
// k, with every width from symWidthCap up sharing one class — and by the
// node of the code prefix read so far (1, then node<<1|bit) for the
// first symTreeDepth bits; a bit below that depth has one probability per
// position. So bit 2 of a 3-symbol alphabet adapts apart from bit 2 of a
// 200-symbol one, and a bit apart from its sibling under the other
// prefix, while a symbol still costs the decisions its code has bits.
const (
	symTreeDepth = 6
	symWidthCap  = 6
	symMaxBits   = 24 // positions past it share the last deep probability

	// symTreeLen packs the classes' trees: class k holds the 2^k-1 nodes
	// of a k-bit prefix tree up to k = symTreeDepth, 2^symTreeDepth-1
	// past it.
	symTreeLen = 1<<(symTreeDepth+1) - 2 - symTreeDepth + (symWidthCap-symTreeDepth)*(1<<symTreeDepth-1)
)

// symTreeOff is where width class k's nodes start in symCtx.tree; class k
// ends where class k+1 starts.
var symTreeOff = func() (off [symWidthCap + 1]int) {
	for k := 1; k <= symWidthCap; k++ {
		off[k] = off[k-1] + 1<<min(k, symTreeDepth) - 1
	}
	return off
}()

// symCtx is one set of tree contexts: a probability per prefix node of
// each width class, and one per code-bit position below the trees.
type symCtx struct {
	tree [symTreeLen]uint16
	deep symDeep
}

// symDeep is a code's probabilities by position below the tree.
type symDeep [symMaxBits - symTreeDepth]uint16

// class is the node probabilities of a k-bit code, node i at [i-1].
func (s *symCtx) class(k int) []uint16 {
	k = min(k, symWidthCap)
	return s.tree[symTreeOff[k-1]:symTreeOff[k]]
}

// model is the complete adaptive state shared (by symmetric
// construction, not by reference) between encoder and decoder. Every
// probability starts at the trained prior's (modelTemplate), or at a
// Dictionary's, which also contributes a shared string table.
//
// An operand reference's (l, r) is decided apart from the immediates of
// the production it sits in, and in contexts every production shares:
// lvl for l, and reg[0] for an r among the registers before the use
// (l = 0), reg[1] for one among a whole dominator's block (l > 0). A
// string is a reference into the dictionary's table (useDict, dictSym),
// into the unit's own table of the strings it has sent (useSeen,
// seenSym), or a literal (its length, then lit per byte).
type model struct {
	prods   [numProd]prodCtx // one per production
	ops     [core.NumOps]opTree
	cst     [numCSTCtx]cstTree
	lvl     symCtx
	reg     [2]symCtx
	lit     [256]uint16
	useDict uint16
	dictSym symCtx
	useSeen uint16
	seenSym symCtx

	dictStrings []string
	dictIndex   map[string]int // writer-side lookup, nil on the reader
}

// prior is the model's trained starting state: every probability word
// (a probability and its count, eachProb order) the adaptive model holds
// after encoding a fixed set of generated programs at O2, each count
// capped, serialized as a dictionary without strings. TestPriorIsTrained
// rebuilds it from its training list, and DESIGN.md §11 says how the list
// and the cap were chosen.
//
//go:embed prior.stsd
var prior []byte

// modelTemplate is the prior as a model, parsed once through the word
// checks of ParseDictionary: a new model is a copy of it, not a visit to
// each probability.
var modelTemplate = func() (m model) {
	d, err := ParseDictionary(prior)
	if err != nil || len(d.Strings) != 0 || len(d.Probs) == 0 {
		panic(fmt.Sprintf("wire: the embedded prior is not a model: %v", err))
	}
	m.load(d.Probs)
	return m
}()

// modelProbCount is the exact length of a probability snapshot; a
// dictionary with any other count is rejected at parse time.
var modelProbCount = len(new(model).snapshot())

// newModel makes a model primed by dict, in m's memory when m is not nil.
func newModel(dict *Dictionary, m *model) *model {
	if m == nil {
		m = new(model)
	}
	*m = modelTemplate
	if dict != nil {
		if len(dict.Probs) > 0 {
			m.load(dict.Probs)
		}
		m.dictStrings = dict.Strings
		m.dictIndex = make(map[string]int, len(dict.Strings))
		for i, s := range dict.Strings {
			m.dictIndex[s] = i
		}
	}
	return m
}

// load sets m's probability words to a snapshot's, in eachProb order.
func (m *model) load(probs []uint16) {
	i := 0
	m.eachProb(func(p *uint16) { *p = probs[i]; i++ })
}

// train encodes each module through m, one unit after another, as the v2
// encoder would: m ends in the state the modules taught it.
func (m *model) train(mods []*core.Module) {
	for _, mod := range mods {
		aw := &acWriter{mdl: m, rc: newRCEncoder()}
		(&encoder{m: mod, w: aw}).encodeAll()
		aw.finish()
	}
}

// eachProb visits every adaptive probability in a fixed canonical
// order — the order Dictionary.Probs is serialized in.
func (m *model) eachProb(f func(*uint16)) {
	for i := range m.prods {
		pc := &m.prods[i]
		pc.sym.eachProb(f)
		for j := range pc.flag {
			f(&pc.flag[j])
		}
		for j := range pc.cont {
			f(&pc.cont[j])
		}
		for j := range pc.pay {
			for k := range pc.pay[j] {
				f(&pc.pay[j][k])
			}
		}
	}
	for i := range m.ops {
		for j := range m.ops[i] {
			f(&m.ops[i][j])
		}
	}
	for i := range m.cst {
		for j := range m.cst[i] {
			f(&m.cst[i][j])
		}
	}
	m.lvl.eachProb(f)
	m.reg[0].eachProb(f)
	m.reg[1].eachProb(f)
	for j := range m.lit {
		f(&m.lit[j])
	}
	f(&m.useDict)
	m.dictSym.eachProb(f)
	f(&m.useSeen)
	m.seenSym.eachProb(f)
}

func (s *symCtx) eachProb(f func(*uint16)) {
	for j := range s.tree {
		f(&s.tree[j])
	}
	for j := range s.deep {
		f(&s.deep[j])
	}
}

func (m *model) snapshot() []uint16 {
	var out []uint16
	m.eachProb(func(p *uint16) { out = append(out, *p) })
	return out
}

// acEncodeSymbol writes one truncated-binary symbol, each code bit
// decided in its tree context (rcDecoder.symbol is the inverse).
func acEncodeSymbol(rc *rcEncoder, s *symCtx, v, n int) {
	if n <= 0 || v < 0 || v >= n {
		panic(fmt.Sprintf("wire: symbol %d outside alphabet of size %d", v, n))
	}
	if n == 1 {
		return
	}
	k := bits.Len(uint(n - 1))
	acEncodeCode(rc, s.class(k), &s.deep, k, v, n)
}

// acEncodeCode writes v's k-bit truncated-binary code for an alphabet of
// n, its first symTreeDepth bits decided at their prefix's node of tree t,
// the rest at their position's probability in deep (rcDecoder.code is the
// inverse).
func acEncodeCode(rc *rcEncoder, t []uint16, deep *symDeep, k, v, n int) {
	u := 1<<k - n
	val, nb := v, k-1
	if v >= u {
		val, nb = v+u, k
	}
	node := 1
	for pos := 0; pos < nb; pos++ {
		bit := val >> (nb - 1 - pos) & 1
		if pos < symTreeDepth {
			rc.encodeBit(&t[node-1], bit)
			node = node<<1 | bit
		} else {
			rc.encodeBit(&deep[min(pos-symTreeDepth, len(deep)-1)], bit)
		}
	}
}

// acWriter implements symWriter over the adaptive model — wire v2.
type acWriter struct {
	mdl     *model
	rc      *rcEncoder
	prod    int
	flagIdx int
	far     int // the last reference's l was > 0: its r's context
	op      int // the opcode before the next one in its block

	// seen indexes the strings this unit has sent as literals, in the
	// order sent. It is the Encoder's, which clears it after each unit.
	seen map[string]int
}

func (w *acWriter) finish() []byte { return w.rc.finish() }

func (w *acWriter) pc() *prodCtx { return &w.mdl.prods[w.prod] }

// setProd switches production; prodBlock opens a block, where an opcode's
// context starts again from OpInvalid.
func (w *acWriter) setProd(p int) {
	w.prod = p
	w.flagIdx = 0
	if p == prodBlock {
		w.op = int(core.OpInvalid)
	}
}

func (w *acWriter) bit(b bool) {
	pc := w.pc()
	i := w.flagIdx
	if i >= len(pc.flag) {
		i = len(pc.flag) - 1
	}
	w.flagIdx++
	bit := 0
	if b {
		bit = 1
	}
	w.rc.encodeBit(&pc.flag[i], bit)
}

func (w *acWriter) symbol(v, n int) {
	acEncodeSymbol(w.rc, &w.pc().sym, v, n)
}

func (w *acWriter) opcode(v int) {
	if v < 0 || v >= core.NumOps {
		panic(fmt.Sprintf("wire: opcode %d outside alphabet of size %d", v, core.NumOps))
	}
	acEncodeCode(w.rc, w.mdl.ops[w.op][:], nil, opBits, v, core.NumOps)
	w.op = v
}

func (w *acWriter) cstKind(v, ctx int) {
	if v < 0 || v >= core.NumCSTKinds {
		panic(fmt.Sprintf("wire: CST kind %d outside alphabet of size %d", v, core.NumCSTKinds))
	}
	acEncodeCode(w.rc, w.mdl.cst[ctx][:], nil, cstBits, v, core.NumCSTKinds)
}

func (w *acWriter) level(v, n int) {
	acEncodeSymbol(w.rc, &w.mdl.lvl, v, n)
	w.far = min(v, 1)
}

func (w *acWriter) register(v, n int) {
	acEncodeSymbol(w.rc, &w.mdl.reg[w.far], v, n)
}

// uvarint codes a count by its magnitude: its bit length L in unary, a
// decision per length in the production's cont contexts, then the L-1
// bits below the top one, most significant first, bit pos of length L in
// pay[min(L,15)][min(pos,3)]. Most counts are below 4 and cost one to
// four decisions.
func (w *acWriter) uvarint(v uint64) {
	pc := w.pc()
	n := bits.Len64(v)
	for l := 0; l < n; l++ {
		w.rc.encodeBit(&pc.cont[min(l, len(pc.cont)-1)], 1)
	}
	w.rc.encodeBit(&pc.cont[min(n, len(pc.cont)-1)], 0)
	pay := &pc.pay[min(n, len(pc.pay)-1)]
	for pos := 0; pos < n-1; pos++ {
		w.rc.encodeBit(&pay[min(pos, len(pay)-1)], int(v>>uint(n-2-pos)&1))
	}
}

func (w *acWriter) svarint(v int64) {
	w.uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

func (w *acWriter) float64bits(f float64) {
	w.rc.encodeDirect(math.Float64bits(f), 64)
}

func (w *acWriter) litByte(b byte) {
	ctx := 1
	for i := 7; i >= 0; i-- {
		bit := int(b>>uint(i)) & 1
		w.rc.encodeBit(&w.mdl.lit[ctx], bit)
		ctx = ctx<<1 | bit
	}
}

// str writes a string as a reference into the dictionary's table when it
// is there; else, once the unit has sent a string, as a flag and, when it
// has sent this one, its index among those sent; else as a literal, which
// the table then holds.
func (w *acWriter) str(s string) {
	m := w.mdl
	if len(m.dictStrings) > 0 {
		if idx, ok := m.dictIndex[s]; ok {
			w.rc.encodeBit(&m.useDict, 1)
			acEncodeSymbol(w.rc, &m.dictSym, idx, len(m.dictStrings))
			return
		}
		w.rc.encodeBit(&m.useDict, 0)
	}
	if n := len(w.seen); n > 0 {
		if idx, ok := w.seen[s]; ok {
			w.rc.encodeBit(&m.useSeen, 1)
			acEncodeSymbol(w.rc, &m.seenSym, idx, n)
			return
		}
		w.rc.encodeBit(&m.useSeen, 0)
	} else if w.seen == nil {
		w.seen = make(map[string]int)
	}
	w.uvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.litByte(s[i])
	}
	w.seen[s] = len(w.seen)
}

// acReader implements symReader over the adaptive model — the decode
// side of wire v2. It is constructed after the container header (model
// byte, optional dictionary id, payload length) has been parsed. Each
// method decodes its symbol's bits and then reads the coder's latch once:
// a payload cut short is reported as truncated, whatever the zeros fed in
// its place decoded to.
type acReader struct {
	mdl     *model
	rc      rcDecoder
	prod    int
	flagIdx int
	far     int      // the last reference's l was > 0: its r's context
	op      int      // the opcode before the next one in its block
	buf     []byte   // str's scratch
	seen    []string // the strings this unit has sent as literals
}

// newACReader begins a v2 payload of n bytes at src's position; its model
// is made in mdl's memory when mdl is not nil.
func newACReader(src *byteSource, dict *Dictionary, n int64, mdl *model) (*acReader, error) {
	r := &acReader{}
	if err := r.rc.begin(src, n); err != nil {
		return nil, err
	}
	r.mdl = newModel(dict, mdl)
	return r, nil
}

func (r *acReader) pc() *prodCtx { return &r.mdl.prods[r.prod] }

func (r *acReader) setProd(p int) {
	r.prod = p
	r.flagIdx = 0
	if p == prodBlock {
		r.op = int(core.OpInvalid)
	}
}

func (r *acReader) bit() (bool, error) {
	pc := r.pc()
	i := min(r.flagIdx, len(pc.flag)-1)
	r.flagIdx++
	b := r.rc.decodeBit(&pc.flag[i])
	return b == 1, r.rc.err
}

func (r *acReader) symbol(n int) (int, error) {
	return r.rc.symbol(&r.pc().sym, n)
}

func (r *acReader) opcode() (int, error) {
	v, err := r.rc.code(r.mdl.ops[r.op][:], nil, opBits, core.NumOps)
	r.op = v
	return v, err
}

func (r *acReader) cstKind(ctx int) (int, error) {
	return r.rc.code(r.mdl.cst[ctx][:], nil, cstBits, core.NumCSTKinds)
}

func (r *acReader) level(n int) (int, error) {
	v, err := r.rc.symbol(&r.mdl.lvl, n)
	r.far = min(v, 1)
	return v, err
}

func (r *acReader) register(n int) (int, error) {
	return r.rc.symbol(&r.mdl.reg[r.far], n)
}

func (r *acReader) uvarint() (uint64, error) {
	pc, rc := r.pc(), &r.rc
	n := 0
	for rc.decodeBit(&pc.cont[min(n, len(pc.cont)-1)]) == 1 {
		if n++; n > 64 {
			return 0, malformedf("varint overflow")
		}
	}
	if n == 0 {
		return 0, rc.err
	}
	pay := &pc.pay[min(n, len(pc.pay)-1)]
	v := uint64(1)
	for pos := 0; pos < n-1; pos++ {
		v = v<<1 | uint64(rc.decodeBit(&pay[min(pos, len(pay)-1)]))
	}
	if rc.err != nil {
		return 0, rc.err
	}
	return v, nil
}

func (r *acReader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *acReader) float64bits() (float64, error) {
	v := r.rc.decodeDirect(64)
	return math.Float64frombits(v), r.rc.err
}

func (r *acReader) litByte() (byte, error) {
	lit := &r.mdl.lit
	ctx := 1
	for i := 0; i < 8; i++ {
		ctx = ctx<<1 | r.rc.decodeBit(&lit[ctx&0xFF])
	}
	return byte(ctx), r.rc.err
}

// str decodes a string acWriter.str wrote. A reference is the string
// already made — the dictionary's, or the one this unit's earlier literal
// made — so a string said twice costs no allocation. A literal is decoded
// into the reader's scratch, which grows only as its bytes are decoded —
// a declared length sizes nothing — and makes the one string from it.
func (r *acReader) str() (string, error) {
	m, rc := r.mdl, &r.rc
	if len(m.dictStrings) > 0 && rc.decodeBit(&m.useDict) == 1 {
		idx, err := rc.symbol(&m.dictSym, len(m.dictStrings))
		if err != nil {
			return "", err
		}
		return m.dictStrings[idx], nil
	}
	if n := len(r.seen); n > 0 && rc.decodeBit(&m.useSeen) == 1 {
		idx, err := rc.symbol(&m.seenSym, n)
		if err != nil {
			return "", err
		}
		return r.seen[idx], nil
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", malformedf("string too long")
	}
	buf := r.buf[:0]
	for ; n > 0; n-- {
		b, err := r.litByte()
		if err != nil {
			return "", err
		}
		if len(buf) == cap(buf) {
			// Doubling: a long literal's scratch costs twice its length,
			// where append's growth of large slices costs five times.
			buf = append(make([]byte, 0, max(2*len(buf), 64)), buf...)
		}
		buf = append(buf, b)
	}
	r.buf = buf
	s := string(buf)
	r.seen = append(r.seen, s)
	return s, nil
}

// end enforces the v2 canonical tail: the range coder must have
// consumed the declared payload exactly (byte-count symmetry with the
// encoder, see rangecoder.go) and end with its code at 0 — the encoder's
// flush writes the coder's low end, so that is the one spelling of the
// last bytes, and LZMA's own end check — and the enclosing source must be
// at EOF.
func (r *acReader) end() error {
	if !r.rc.consumed() {
		return malformedf("payload length does not match the final production")
	}
	if r.rc.cod != 0 {
		return malformedf("range coder does not end at the encoder's flush")
	}
	if _, err := r.rc.src.ReadByte(); err == nil {
		return malformedf("trailing data after the final production")
	}
	return nil
}
