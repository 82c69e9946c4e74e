package wire

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"safetsa/internal/core"
)

// Production contexts for the v2 adaptive model. Every opcode is its
// own production; the section-level productions below cover the symbol
// positions that are not governed by a specific opcode. The encoder and
// decoder switch contexts with setProd at identical grammar points, so
// the per-production frequency models adapt in lockstep.
const (
	prodOp     = int(core.NumOps) + iota // opcode selector position
	prodTables                           // type/field/method/class tables
	prodSig                              // function name + signature
	prodCST                              // control structure tree productions
	prodBlock                            // per-block phi and instruction counts
	prodRefs                             // phase-3 phi operands and CST refs
	numProd
)

// prodCtx holds the adaptive bit probabilities for one production:
// truncated-binary symbol bits by position, standalone flag bits by
// order of appearance, and uvarint continuation/payload bits by group.
type prodCtx struct {
	sym  [24]uint16
	flag [8]uint16
	cont [16]uint16
	pay  [16][4]uint16
}

// model is the complete adaptive state shared (by symmetric
// construction, not by reference) between encoder and decoder. A
// Dictionary primes the initial probabilities and contributes a shared
// string table; everything else starts at probInit.
type model struct {
	prods   [numProd]prodCtx // one per production
	lit     [256]uint16
	useDict uint16
	dictSym [24]uint16

	dictStrings []string
	dictIndex   map[string]int // writer-side lookup, nil on the reader
}

// modelTemplate is the model with every probability at probInit, built
// once: a new model is a copy of it, not a visit to each probability.
var modelTemplate = func() (m model) {
	m.eachProb(func(p *uint16) { *p = probInit })
	return m
}()

// modelProbCount is the exact length of a probability snapshot; a
// dictionary with any other count is rejected at parse time.
var modelProbCount = len(modelTemplate.snapshot())

// newModel makes a model primed by dict, in m's memory when m is not nil.
func newModel(dict *Dictionary, m *model) *model {
	if m == nil {
		m = new(model)
	}
	*m = modelTemplate
	if dict != nil {
		if len(dict.Probs) > 0 {
			i := 0
			m.eachProb(func(p *uint16) { *p = dict.Probs[i]; i++ })
		}
		m.dictStrings = dict.Strings
		m.dictIndex = make(map[string]int, len(dict.Strings))
		for i, s := range dict.Strings {
			m.dictIndex[s] = i
		}
	}
	return m
}

// eachProb visits every adaptive probability in a fixed canonical
// order — the order Dictionary.Probs is serialized in.
func (m *model) eachProb(f func(*uint16)) {
	for i := range m.prods {
		pc := &m.prods[i]
		for j := range pc.sym {
			f(&pc.sym[j])
		}
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
	for j := range m.lit {
		f(&m.lit[j])
	}
	f(&m.useDict)
	for j := range m.dictSym {
		f(&m.dictSym[j])
	}
}

func (m *model) snapshot() []uint16 {
	var out []uint16
	m.eachProb(func(p *uint16) { out = append(out, *p) })
	return out
}

// acEncodeSymbol writes one truncated-binary symbol with each code bit
// adapted in the per-position context slice.
func acEncodeSymbol(rc *rcEncoder, ctx []uint16, v, n int) {
	if n <= 0 || v < 0 || v >= n {
		panic(fmt.Sprintf("wire: symbol %d outside alphabet of size %d", v, n))
	}
	if n == 1 {
		return
	}
	k := uint(bits.Len(uint(n - 1)))
	u := (1 << k) - n
	var val uint64
	var nb uint
	if v < u {
		val, nb = uint64(v), k-1
	} else {
		val, nb = uint64(v+u), k
	}
	for i := int(nb) - 1; i >= 0; i-- {
		pos := int(nb) - 1 - i
		if pos >= len(ctx) {
			pos = len(ctx) - 1
		}
		rc.encodeBit(&ctx[pos], int(val>>uint(i)&1))
	}
}

// acDecodeSymbol mirrors acEncodeSymbol: it reads the k-1 common bits,
// and the conditional extra bit exactly when the prefix selects a long
// codeword — the same context sequence the encoder used on both paths.
func acDecodeSymbol(rc *rcDecoder, ctx []uint16, n int) (int, error) {
	if n <= 0 {
		return 0, malformedf("empty alphabet (no value of the required kind is in scope)")
	}
	if n == 1 {
		return 0, nil
	}
	k := uint(bits.Len(uint(n - 1)))
	u := (1 << k) - n
	var v uint64
	for pos := 0; pos < int(k-1); pos++ {
		cp := pos
		if cp >= len(ctx) {
			cp = len(ctx) - 1
		}
		b, err := rc.decodeBit(&ctx[cp])
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	if int(v) < u {
		return int(v), nil
	}
	cp := int(k - 1)
	if cp >= len(ctx) {
		cp = len(ctx) - 1
	}
	b, err := rc.decodeBit(&ctx[cp])
	if err != nil {
		return 0, err
	}
	return int(v)<<1 + b - u, nil
}

// acWriter implements symWriter over the adaptive model — wire v2.
type acWriter struct {
	mdl     *model
	rc      *rcEncoder
	prod    int
	flagIdx int
}

func (w *acWriter) finish() []byte { return w.rc.finish() }

func (w *acWriter) pc() *prodCtx { return &w.mdl.prods[w.prod] }

func (w *acWriter) setProd(p int) {
	if p < 0 || p >= numProd {
		p = prodOp
	}
	w.prod = p
	w.flagIdx = 0
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
	acEncodeSymbol(w.rc, w.pc().sym[:], v, n)
}

func (w *acWriter) uvarint(v uint64) {
	pc := w.pc()
	g := 0
	for {
		gi := g
		if gi >= len(pc.cont) {
			gi = len(pc.cont) - 1
		}
		if v < 16 {
			w.rc.encodeBit(&pc.cont[gi], 0)
			for j := 3; j >= 0; j-- {
				w.rc.encodeBit(&pc.pay[gi][3-j], int(v>>uint(j)&1))
			}
			return
		}
		w.rc.encodeBit(&pc.cont[gi], 1)
		lo := v & 15
		for j := 3; j >= 0; j-- {
			w.rc.encodeBit(&pc.pay[gi][3-j], int(lo>>uint(j)&1))
		}
		v >>= 4
		g++
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

func (w *acWriter) str(s string) {
	m := w.mdl
	if len(m.dictStrings) > 0 {
		if idx, ok := m.dictIndex[s]; ok {
			w.rc.encodeBit(&m.useDict, 1)
			acEncodeSymbol(w.rc, m.dictSym[:], idx, len(m.dictStrings))
			return
		}
		w.rc.encodeBit(&m.useDict, 0)
	}
	w.uvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.litByte(s[i])
	}
}

// acReader implements symReader over the adaptive model — the decode
// side of wire v2. It is constructed after the container header (model
// byte, optional dictionary id, payload length) has been parsed.
type acReader struct {
	mdl     *model
	rc      *rcDecoder
	lim     *limitedByteSource
	outer   io.ByteReader
	prod    int
	flagIdx int
}

// limitedByteSource bounds the range coder to the declared payload
// length: a read past the limit reports EOF, which the coder surfaces
// as a truncation error.
type limitedByteSource struct {
	src io.ByteReader
	n   int64
}

func (l *limitedByteSource) ReadByte() (byte, error) {
	if l.n <= 0 {
		return 0, io.EOF
	}
	b, err := l.src.ReadByte()
	if err == nil {
		l.n--
	}
	return b, err
}

// newACReader begins a v2 payload; its model is made in mdl's memory when
// mdl is not nil.
func newACReader(src io.ByteReader, dict *Dictionary, payloadLen int64, mdl *model) (*acReader, error) {
	lim := &limitedByteSource{src: src, n: payloadLen}
	rc, err := newRCDecoder(lim)
	if err != nil {
		return nil, err
	}
	return &acReader{mdl: newModel(dict, mdl), rc: rc, lim: lim, outer: src}, nil
}

func (r *acReader) pc() *prodCtx { return &r.mdl.prods[r.prod] }

func (r *acReader) setProd(p int) {
	if p < 0 || p >= numProd {
		p = prodOp
	}
	r.prod = p
	r.flagIdx = 0
}

func (r *acReader) bit() (bool, error) {
	pc := r.pc()
	i := r.flagIdx
	if i >= len(pc.flag) {
		i = len(pc.flag) - 1
	}
	r.flagIdx++
	b, err := r.rc.decodeBit(&pc.flag[i])
	return b == 1, err
}

func (r *acReader) symbol(n int) (int, error) {
	return acDecodeSymbol(r.rc, r.pc().sym[:], n)
}

func (r *acReader) uvarint() (uint64, error) {
	pc := r.pc()
	var v uint64
	var shift uint
	g := 0
	for {
		gi := g
		if gi >= len(pc.cont) {
			gi = len(pc.cont) - 1
		}
		c, err := r.rc.decodeBit(&pc.cont[gi])
		if err != nil {
			return 0, err
		}
		var grp uint64
		for j := 0; j < 4; j++ {
			b, err := r.rc.decodeBit(&pc.pay[gi][j])
			if err != nil {
				return 0, err
			}
			grp = grp<<1 | uint64(b)
		}
		if shift > 60 {
			return 0, malformedf("varint overflow")
		}
		v |= grp << shift
		if c == 0 {
			return v, nil
		}
		shift += 4
		g++
	}
}

func (r *acReader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *acReader) float64bits() (float64, error) {
	v, err := r.rc.decodeDirect(64)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(v), nil
}

func (r *acReader) litByte() (byte, error) {
	ctx := 1
	for i := 0; i < 8; i++ {
		b, err := r.rc.decodeBit(&r.mdl.lit[ctx])
		if err != nil {
			return 0, err
		}
		ctx = ctx<<1 | b
	}
	return byte(ctx - 256), nil
}

func (r *acReader) str() (string, error) {
	m := r.mdl
	if len(m.dictStrings) > 0 {
		b, err := r.rc.decodeBit(&m.useDict)
		if err != nil {
			return "", err
		}
		if b == 1 {
			idx, err := acDecodeSymbol(r.rc, m.dictSym[:], len(m.dictStrings))
			if err != nil {
				return "", err
			}
			return m.dictStrings[idx], nil
		}
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", malformedf("string too long")
	}
	buf := make([]byte, n)
	for i := range buf {
		if buf[i], err = r.litByte(); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// end enforces the v2 canonical tail: the range coder must have
// consumed the declared payload exactly (byte-count symmetry with the
// encoder, see rangecoder.go), and the enclosing source must be at EOF.
func (r *acReader) end() error {
	if r.lim.n != 0 {
		return malformedf("payload length does not match the final production")
	}
	if _, err := r.outer.ReadByte(); err == nil {
		return malformedf("trailing data after the final production")
	}
	return nil
}
