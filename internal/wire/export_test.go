package wire

import (
	"math"
	"math/bits"

	"safetsa/internal/core"
)

// ModelAdaptive is the v2 model revision this tree writes.
const ModelAdaptive = modelAdaptive

// Retired reports whether su's decoder has dropped what only decoding
// another body would use (decoder.retire).
func Retired(su *StreamingUnit) bool {
	d := &su.d
	ac, _ := d.r.(*acReader)
	return d.adm == nil && d.lims.first == nil && d.rf.planes == nil && d.kids == nil &&
		(ac == nil || ac.mdl == nil && ac.seen == nil)
}

// EncodeHead is a v1 unit's head — magic and m's tables — with no body
// after it.
func EncodeHead(m *core.Module) []byte {
	w := &bitWriter{}
	for _, b := range magic {
		w.writeBits(uint64(b), 8)
	}
	(&encoder{m: m, w: w}).encodeTables()
	return w.bytes()
}

// EncodeUnchecked is m in wire v1 and in v2 without a dictionary, keyed
// "v1" and "v2", each body written without asking whether the tables
// claim it: a unit the encoder refuses to spell.
func EncodeUnchecked(m *core.Module) map[string][]byte {
	return declaring(func(w symWriter) {
		e := &encoder{m: m, w: w}
		e.encodeTables()
		for _, f := range m.Funcs {
			e.encodeFunc(f)
		}
	})
}

// BudgetRows are the parts of the grammar a Budget reports, in order. A
// block's phi types are decided in the production of its instruction
// count, and booked with it.
var BudgetRows = []string{"opcode", "immediates", "l", "r", "CST", "phi counts", "instruction counts", "strings", "tables"}

// Budget is where the bits of a v2 encoding go.
type Budget struct {
	Decisions int                // the range coder's adaptive decisions
	Bits      map[string]float64 // what each BudgetRows part cost
}

// BudgetOf encodes m in v2 without a dictionary through a recorder that
// stands between the encoder and its acWriter. A part's cost is what its
// calls moved the coder's information content, 8 bits per byte emitted or
// pending less log2 of the range, so the rows add up to the payload less
// its flush; its decisions are the code's bits, counted from the calls'
// arguments.
func BudgetOf(m *core.Module) Budget {
	rec := &budget{aw: acWriter{mdl: newModel(nil, nil), rc: newRCEncoder()}, b: Budget{Bits: map[string]float64{}}}
	(&encoder{m: m, w: rec}).encodeAll()
	return rec.b
}

type budget struct {
	aw   acWriter
	prod int
	b    Budget
}

// info is the coder's information content so far, in bits.
func (r *budget) info() float64 {
	rc := r.aw.rc
	return float64(8*(len(rc.out)+rc.cacheSize)) - math.Log2(float64(rc.rng))
}

// charge runs code, one call on the acWriter, and books its cost and
// decisions to row, or to the production's row when row is empty.
func (r *budget) charge(row string, decisions int, code func()) {
	if row == "" {
		switch r.prod {
		case prodTables:
			row = "tables"
		case prodCST:
			row = "CST"
		case prodPhis, prodJoinPhis:
			row = "phi counts"
		case prodBlock:
			row = "instruction counts"
		default:
			row = "immediates"
		}
	}
	before := r.info()
	code()
	r.b.Bits[row] += r.info() - before
	r.b.Decisions += decisions
}

// symbolDecisions is the length of v's truncated-binary code.
func symbolDecisions(v, n int) int {
	if n == 1 {
		return 0
	}
	k := bits.Len(uint(n - 1))
	if v < 1<<k-n {
		return k - 1
	}
	return k
}

// uvarintDecisions is what acWriter.uvarint decides for v: its bit length
// in unary plus the stop, then the bits below the top one.
func uvarintDecisions(v uint64) int {
	n := bits.Len64(v)
	return n + 1 + max(n-1, 0)
}

func (r *budget) setProd(p int) { r.prod = p; r.aw.setProd(p) }
func (r *budget) bit(b bool)    { r.charge("", 1, func() { r.aw.bit(b) }) }
func (r *budget) symbol(v, n int) {
	r.charge("", symbolDecisions(v, n), func() { r.aw.symbol(v, n) })
}
func (r *budget) opcode(v int) {
	r.charge("opcode", symbolDecisions(v, core.NumOps), func() { r.aw.opcode(v) })
}
func (r *budget) cstKind(v, ctx int) {
	r.charge("CST", symbolDecisions(v, core.NumCSTKinds), func() { r.aw.cstKind(v, ctx) })
}
func (r *budget) level(v, n int) {
	r.charge("l", symbolDecisions(v, n), func() { r.aw.level(v, n) })
}
func (r *budget) register(v, n int) {
	r.charge("r", symbolDecisions(v, n), func() { r.aw.register(v, n) })
}
func (r *budget) uvarint(v uint64) {
	r.charge("", uvarintDecisions(v), func() { r.aw.uvarint(v) })
}
func (r *budget) svarint(v int64) {
	r.charge("", uvarintDecisions(uint64(v)<<1^uint64(v>>63)), func() { r.aw.svarint(v) })
}
func (r *budget) float64bits(f float64) { r.charge("", 0, func() { r.aw.float64bits(f) }) }

// str's decisions are the string table's flag once the unit has sent a
// string, and then the index of a string sent before or the literal.
func (r *budget) str(s string) {
	d := uvarintDecisions(uint64(len(s))) + 8*len(s)
	if n := len(r.aw.seen); n > 0 {
		d = 1 + d
		if idx, ok := r.aw.seen[s]; ok {
			d = 1 + symbolDecisions(idx, n)
		}
	}
	r.charge("strings", d, func() { r.aw.str(s) })
}

// TrainPrior is a prior trained on mods: the model's words after encoding
// them from every probability at probInit, each count capped at limit,
// serialized as the embedded prior is.
func TrainPrior(mods []*core.Module, limit int) []byte {
	var m model
	m.eachProb(func(p *uint16) { *p = probInit })
	m.train(mods)
	probs := m.snapshot()
	for i, w := range probs {
		probs[i] = uint16(min(int(w>>probBits), limit))<<probBits | w&probMask
	}
	return (&Dictionary{Probs: probs}).Bytes()
}
