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
	rcTop        = 1 << 24
	probBits     = 11
	probOne      = 1 << probBits
	probInit     = probOne / 2
	probMoveBits = 5
)

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

// encodeBit codes one bit against the adaptive probability *p (the
// chance that the bit is 0, in 1/probOne units) and moves *p toward the
// observed outcome. The decoder applies the identical update, keeping
// both models in lockstep.
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (probOne - *p) >> probMoveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoveBits
	}
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

// decodeBit decodes one bit against *p.
func (d *rcDecoder) decodeBit(p *uint16) int {
	rng, cod, b := decide(d.rng, d.cod, p)
	if rng < rcTop {
		rng, cod = d.shift(rng, cod)
	}
	d.rng, d.cod = rng, cod
	return b
}

// decide is one decision's arithmetic, encodeBit's inverse: it splits
// the range at *p's bound, returns the range and code of the side the
// code falls in and that side's bit, and moves *p toward it. The side is
// selected by a mask rather than by a branch on the data. The caller
// renormalizes.
func decide(rng, cod uint32, p *uint16) (uint32, uint32, int) {
	pv := uint32(*p)
	bound := (rng >> probBits) * pv
	// one is all ones when the bit is 1 (cod >= bound), zero when it is 0.
	one := uint32((uint64(cod)-uint64(bound))>>63) - 1
	*p = uint16(pv + ((probOne-pv)>>probMoveBits)&^one - (pv>>probMoveBits)&one)
	return bound&^one | (rng-bound)&one, cod - bound&one, int(one & 1)
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
	u := 1<<k - n
	t := s.class(k)
	// node is 1 followed by the code bits read so far; the range and code
	// stay in locals across them.
	rng, cod, node := d.rng, d.cod, 1
	for pos := 0; pos < k; pos++ {
		if pos == k-1 && node-1<<pos < u {
			d.rng, d.cod = rng, cod
			return node - 1<<pos, d.err // a short codeword
		}
		var p *uint16
		if pos < symTreeDepth {
			p = &t[node-1]
		} else {
			p = s.deepProb(pos)
		}
		var b int
		rng, cod, b = decide(rng, cod, p)
		if rng < rcTop {
			rng, cod = d.shift(rng, cod)
		}
		node = node<<1 | b
	}
	d.rng, d.cod = rng, cod
	return node - 1<<k - u, d.err
}

// bits decodes len(ctx) bits, most significant first, bit i against
// ctx[i], with the range and code kept in locals across them.
func (d *rcDecoder) bits(ctx []uint16) int {
	rng, cod, v := d.rng, d.cod, 0
	for i := range ctx {
		var b int
		rng, cod, b = decide(rng, cod, &ctx[i])
		if rng < rcTop {
			rng, cod = d.shift(rng, cod)
		}
		v = v<<1 | b
	}
	d.rng, d.cod = rng, cod
	return v
}
