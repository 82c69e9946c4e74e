package wire

import "math/bits"

// Binary range coder for wire format v2. The construction is the
// classic carry-cached range coder (as used by LZMA): 32-bit range,
// 11-bit probabilities adapted by shift, byte-at-a-time renormalization
// with carry propagation buffered through a cache byte. Everything is
// integer arithmetic, so encoder and decoder are exactly reproducible
// across platforms — the determinism the canonical-wire oracle depends
// on.
//
// Byte-count symmetry: the decoder preloads 5 bytes and then reads one
// byte per renormalization; the encoder's final flush performs 5 extra
// shiftLow steps, the last of which always drains the pending
// carry-cache run (a pending run of 0xFF bytes in `low` is at most 4
// bytes long, so the condition in shiftLow fires by the fifth flush
// step at the latest). The encoder therefore emits exactly the number
// of bytes the decoder consumes, which lets the v2 container enforce
// consumed == declared-length and reject any trailing garbage.
const (
	rcTop    = 1 << 24
	probBits = 11
	probOne  = 1 << probBits
	probMask = probOne - 1
	probInit = probOne / 2 // and a count of 0: where the prior's training starts

	// A probability word is a uint16: the probability in its low probBits
	// bits, and above them the count of decisions it has taken, which
	// saturates at countMax.
	countMax     = 29
	probMoveBits = 5 // the slowest rate: 1/32, from the 30th decision on
)

// rates is the adaptation schedule, indexed by a word's count: the word's
// next count above probBits, and in the low bits the multiplier m =
// 2^(probMoveBits-shift) that moves a probability by x*m >> probMoveBits,
// which is x >> shift — a multiply and a constant shift, where a variable
// shift would need the one register amd64 shifts by. The shift is
// clamp(bits.Len(c+3)-1, 1, probMoveBits): 1/2 at the first decision,
// then 1/4, 1/8, 1/16 and 1/32, about 1/(c+3). A probability learns as
// fast as its evidence allows while it has little, and settles at the
// slow rate once it has plenty. A count above countMax (no model holds
// one) is taken back to it.
var rates = func() (t [1 << (16 - probBits)]uint16) {
	for c := range t {
		s := min(max(bits.Len(uint(c+3))-1, 1), probMoveBits)
		t[c] = uint16(min(c+1, countMax))<<probBits | 1<<(probMoveBits-s)
	}
	return t
}()

// adapt is the one update rule, the encoder's and the decoder's: it moves
// word w's probability toward the decided bit — one is all ones when the
// bit is 1, zero when it is 0 — by its count's rate, and counts the
// decision. A probability in [1, probOne-1] stays there, so no bound is
// ever 0 and the coder cannot collapse its range; one of 0 is taken to 1.
func adapt(w uint16, one uint32) uint16 {
	r := rates[w>>probBits]
	m, pv := uint32(r&probMask), uint32(w&probMask)
	pv += (probOne-pv)*m>>probMoveBits&^one - pv*m>>probMoveBits&one
	return uint16(max(pv, 1)) | r&^probMask
}

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int
	out       []byte
}

func newRCEncoder() *rcEncoder {
	return &rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
}

func (e *rcEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// encodeBit codes one bit against the adaptive probability word *p (its
// probability is the chance that the bit is 0, in 1/probOne units) and
// moves *p toward the observed outcome (adapt). The decoder applies the
// identical update, keeping both models in lockstep.
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> probBits) * uint32(*p&probMask)
	if bit == 0 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	*p = adapt(*p, -uint32(bit))
	for e.rng < rcTop {
		e.rng <<= 8
		e.shiftLow()
	}
}

// encodeDirect codes n bits of v (most significant first) at fixed
// probability 1/2 with no model update — used for float64 payloads
// where adaptation has nothing to learn.
func (e *rcEncoder) encodeDirect(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.rng >>= 1
		if v>>uint(i)&1 != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < rcTop {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

// finish flushes the coder and returns the complete payload. The first
// emitted byte is always 0 (the initial cache), which the decoder
// verifies.
func (e *rcEncoder) finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// rcDecoder reads a payload of a declared length from a byteSource: the
// payload's bytes in hand are src.data[src.i:end], a window on the unit
// over memory, on the read buffer over a stream. A byte is taken by
// indexing the window; only when it runs out does the decoder ask the
// source for more, and a read past the declared end — or past the end of
// the input — latches err and feeds zeros. The decoding methods return
// their bits alone, except symbol, which returns the latch as its error;
// acReader's other methods read err once per symbol. The latch's verdict
// wins over any value decoded from those zeros.
type rcDecoder struct {
	src      *byteSource
	end      int   // where the payload's bytes in hand end in src.data
	stop     int64 // the stream offset just past the declared payload
	rng, cod uint32
	err      error
}

// errTruncated is the latched verdict on a payload that ends before its
// coder does.
var errTruncated = malformedf("stream truncated")

// begin starts decoding the n-byte payload at src's position: it checks
// the prologue and preloads the code.
func (d *rcDecoder) begin(src *byteSource, n int64) error {
	*d = rcDecoder{src: src, stop: src.offset() + n, rng: 0xFFFFFFFF}
	d.end = d.window()
	if b := d.next(); d.err != nil {
		return d.err
	} else if b != 0 {
		return malformedf("corrupt range-coder prologue")
	}
	for i := 0; i < 4; i++ {
		d.cod = d.cod<<8 | uint32(d.next())
	}
	return d.err
}

// window is where the payload's bytes in hand end.
func (d *rcDecoder) window() int {
	return int(min(int64(len(d.src.data)), d.stop-d.src.off))
}

// next takes the payload's next byte.
func (d *rcDecoder) next() byte {
	if s := d.src; s.i < d.end {
		b := s.data[s.i]
		s.i++
		return b
	}
	return d.refill()
}

// refill is next past the window: the source reads on when every byte in
// hand is consumed and the payload is not, and anything else is a read
// past the payload's end, which latches. Once latched, nothing is read.
func (d *rcDecoder) refill() byte {
	s := d.src
	if d.err == nil && s.i == len(s.data) && s.offset() < d.stop && s.fill() {
		d.end = d.window()
		return d.next()
	}
	if d.err == nil {
		d.err = errTruncated
	}
	return 0
}

// shift renormalizes: it shifts the payload's next bytes into the code
// until the range is wide again.
func (d *rcDecoder) shift(rng, cod uint32) (uint32, uint32) {
	for rng < rcTop {
		cod = cod<<8 | uint32(d.next())
		rng <<= 8
	}
	return rng, cod
}

// consumed reports whether the coder has read its payload exactly.
func (d *rcDecoder) consumed() bool { return d.src.offset() == d.stop }

// decodeBit decodes one bit against *p and moves *p toward it.
func (d *rcDecoder) decodeBit(p *uint16) int {
	rng, cod, one := decide(d.rng, d.cod, *p)
	*p = adapt(*p, one)
	if rng < rcTop {
		rng, cod = d.shift(rng, cod)
	}
	d.rng, d.cod = rng, cod
	return int(one & 1)
}

// decide is one decision's arithmetic, encodeBit's inverse: it splits
// the range at word w's bound and returns the range and code of the side
// the code falls in, and one, all ones when that side is the 1 bit's and
// zero when it is the 0 bit's — which the caller then hands to adapt with
// w. The side is selected by a mask rather than by a branch on the data.
// The caller renormalizes. The update is the caller's so that decide and
// adapt are each small enough for the compiler to inline into the
// decoding loops: together they are not, and a call per decision cost the
// corpus's decode 13 %.
func decide(rng, cod uint32, w uint16) (uint32, uint32, uint32) {
	bound := (rng >> probBits) * uint32(w&probMask)
	one := uint32((uint64(cod)-uint64(bound))>>63) - 1
	return bound&^one | (rng-bound)&one, cod - bound&one, one
}

// decodeDirect decodes n bits coded by encodeDirect.
func (d *rcDecoder) decodeDirect(n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		d.rng >>= 1
		var bit uint64
		if d.cod >= d.rng {
			d.cod -= d.rng
			bit = 1
		}
		v = v<<1 | bit
		d.rng, d.cod = d.shift(d.rng, d.cod)
	}
	return v
}

// symbol decodes one truncated-binary symbol of an alphabet of n coded by
// acEncodeSymbol: the k-1 common bits, and the extra bit exactly when the
// prefix selects a long codeword, each against its tree context — its
// prefix's node in the width class's tree, its position's probability
// below the tree. Its error is the latch, read once after the bits, or an
// empty alphabet.
func (d *rcDecoder) symbol(s *symCtx, n int) (int, error) {
	if n <= 1 {
		if n <= 0 {
			return 0, malformedf("empty alphabet (no value of the required kind is in scope)")
		}
		return 0, nil
	}
	k := bits.Len(uint(n - 1))
	return d.code(s.class(k), &s.deep, k, n)
}

// code decodes a k-bit truncated-binary code for an alphabet of n > 1
// coded by acEncodeCode, against tree t and, below it, deep.
func (d *rcDecoder) code(t []uint16, deep *symDeep, k, n int) (int, error) {
	// u codewords are short: the value of the first k-1 bits, when it is
	// below u.
	u, half := 1<<k-n, 1<<(k-1)
	// node is 1 followed by the code bits read so far; the range and code
	// stay in locals across them.
	rng, cod, node := d.rng, d.cod, 1
	for pos := 0; pos < k; pos++ {
		if pos == k-1 && node-half < u {
			d.rng, d.cod = rng, cod
			return node - half, d.err // a short codeword
		}
		var p *uint16
		if pos < symTreeDepth {
			p = &t[node-1]
		} else {
			p = &deep[min(pos-symTreeDepth, len(deep)-1)]
		}
		var one uint32
		rng, cod, one = decide(rng, cod, *p)
		*p = adapt(*p, one)
		if rng < rcTop {
			rng, cod = d.shift(rng, cod)
		}
		node = node<<1 | int(one&1)
	}
	d.rng, d.cod = rng, cod
	return node - 1<<k - u, d.err
}

// bits decodes len(ctx) bits, most significant first, bit i against
// ctx[i], with the range and code kept in locals across them.
func (d *rcDecoder) bits(ctx []uint16) int {
	rng, cod, v := d.rng, d.cod, 0
	for i := range ctx {
		var one uint32
		rng, cod, one = decide(rng, cod, ctx[i])
		ctx[i] = adapt(ctx[i], one)
		if rng < rcTop {
			rng, cod = d.shift(rng, cod)
		}
		v = v<<1 | int(one&1)
	}
	d.rng, d.cod = rng, cod
	return v
}
