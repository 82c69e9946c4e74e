// Package wire implements the SafeTSA externalization of section 7: a
// program is a sequence of symbols, each drawn from a finite alphabet
// fully determined by the preceding context. Version 1 emits each symbol
// with a simple fixed-probability prefix code (truncated binary — the
// code Huffman's algorithm produces for equiprobable symbols); version 2
// keeps the identical symbol decomposition but drives every bit through
// per-production adaptive probability models and a binary range coder
// (see model.go). The encoder transmits the Control Structure Tree
// first, then the basic blocks in the CST-derived dominator pre-order,
// and the phi operands last. Because every operand is decoded against
// the register planes actually in scope, a decoded module is
// referentially secure by construction: a malicious byte stream either
// fails to decode or denotes some well-formed program.
package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"safetsa/internal/core"
)

// ErrMalformed is wrapped by all decode failures.
var ErrMalformed = errors.New("wire: malformed SafeTSA stream")

func malformedf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// symWriter is the symbol sink the encoder writes productions through.
// bitWriter (v1, fixed-probability truncated binary) and acWriter (v2,
// adaptive range coding) both implement it, so one production walk
// serves every wire version.
type symWriter interface {
	bit(b bool)
	symbol(v, n int)
	// opcode writes an instruction's opcode, and level and register the l
	// and r of an operand reference (section 4): symbols like any other
	// to the v1 fixed code, decided in contexts of their own by the
	// adaptive model.
	opcode(v int)
	level(v, n int)
	register(v, n int)
	// cstKind writes a CST node's kind, which the adaptive model decides
	// in ctx, the context of the node's place in the tree (cstRoot …).
	cstKind(v, ctx int)
	uvarint(v uint64)
	svarint(v int64)
	float64bits(f float64)
	str(s string)
	// setProd switches the adaptive probability context to the given
	// production (an opcode or one of the prod* section ids); the v1
	// fixed code ignores it. Encoder and decoder call it at identical
	// grammar points, which is what keeps the adaptive models in
	// lockstep.
	setProd(p int)
}

// symReader mirrors symWriter on the decode side.
type symReader interface {
	bit() (bool, error)
	symbol(n int) (int, error)
	opcode() (int, error)
	level(n int) (int, error)
	register(n int) (int, error)
	cstKind(ctx int) (int, error)
	uvarint() (uint64, error)
	svarint() (int64, error)
	float64bits() (float64, error)
	str() (string, error)
	setProd(p int)
	// end reports whether the stream is cleanly exhausted: at most a
	// partial byte of zero padding may remain, and the underlying source
	// must be at EOF. Trailing data after the final production is a
	// decode error — a distribution unit has exactly one spelling.
	end() error
}

// bitWriter accumulates a bit stream, most significant bit of each byte
// first.
type bitWriter struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | byte((v>>uint(i))&1)
		w.nCur++
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// bytes flushes (padding the final byte with zeros) and returns the
// stream.
func (w *bitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitLen reports the current length in bits.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nCur) }

// symbol emits one symbol v from an alphabet of size n using the
// truncated binary code. n must be >= 1 and v < n; n == 1 emits nothing
// (the symbol is forced).
func (w *bitWriter) symbol(v, n int) {
	if n <= 0 || v < 0 || v >= n {
		panic(fmt.Sprintf("wire: symbol %d outside alphabet of size %d", v, n))
	}
	if n == 1 {
		return
	}
	k := uint(bits.Len(uint(n - 1)))
	u := (1 << k) - n // number of short (k-1 bit) codewords
	if v < u {
		w.writeBits(uint64(v), k-1)
	} else {
		w.writeBits(uint64(v+u), k)
	}
}

func (w *bitWriter) opcode(v int)      { w.symbol(v, core.NumOps) }
func (w *bitWriter) level(v, n int)    { w.symbol(v, n) }
func (w *bitWriter) register(v, n int) { w.symbol(v, n) }
func (w *bitWriter) cstKind(v, _ int)  { w.symbol(v, core.NumCSTKinds) }

// uvarint emits an unbounded non-negative integer as 4-bit groups, each
// preceded by a continuation bit.
func (w *bitWriter) uvarint(v uint64) {
	for {
		if v < 16 {
			w.writeBits(0, 1)
			w.writeBits(v, 4)
			return
		}
		w.writeBits(1, 1)
		w.writeBits(v&15, 4)
		v >>= 4
	}
}

// svarint emits a signed integer with zigzag coding.
func (w *bitWriter) svarint(v int64) {
	w.uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

func (w *bitWriter) float64bits(f float64) {
	w.writeBits(math.Float64bits(f), 64)
}

func (w *bitWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.writeBits(uint64(s[i]), 8)
	}
}

func (w *bitWriter) bit(b bool) {
	if b {
		w.writeBits(1, 1)
	} else {
		w.writeBits(0, 1)
	}
}

// setProd is a no-op: the v1 fixed-probability code has no adaptive
// state to steer.
func (w *bitWriter) setProd(int) {}

// bitReader mirrors bitWriter over an incremental byte source, so the
// same decoder drives both whole-buffer decoding and streaming decode
// behind an io.Reader.
type bitReader struct {
	src io.ByteReader
	cur byte   // unconsumed bits, left-aligned
	n   uint   // number of unconsumed bits in cur
	buf []byte // str's scratch
}

func newBitReader(src io.ByteReader) *bitReader { return &bitReader{src: src} }

func (r *bitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		if r.n == 0 {
			b, err := r.src.ReadByte()
			if err != nil {
				return 0, malformedf("stream truncated")
			}
			r.cur, r.n = b, 8
		}
		v = v<<1 | uint64(r.cur>>7)
		r.cur <<= 1
		r.n--
	}
	return v, nil
}

// symbol reads one truncated-binary symbol from an alphabet of size n.
func (r *bitReader) symbol(n int) (int, error) {
	if n <= 0 {
		return 0, malformedf("empty alphabet (no value of the required kind is in scope)")
	}
	if n == 1 {
		return 0, nil
	}
	k := uint(bits.Len(uint(n - 1)))
	u := (1 << k) - n
	v, err := r.readBits(k - 1)
	if err != nil {
		return 0, err
	}
	if int(v) < u {
		return int(v), nil
	}
	b, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	return int(v)<<1 + int(b) - u, nil
}

func (r *bitReader) opcode() (int, error)        { return r.symbol(core.NumOps) }
func (r *bitReader) level(n int) (int, error)    { return r.symbol(n) }
func (r *bitReader) register(n int) (int, error) { return r.symbol(n) }
func (r *bitReader) cstKind(int) (int, error)    { return r.symbol(core.NumCSTKinds) }

func (r *bitReader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		c, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		g, err := r.readBits(4)
		if err != nil {
			return 0, err
		}
		if shift > 60 {
			return 0, malformedf("varint overflow")
		}
		v |= g << shift
		if c == 0 {
			// The final group carries the most significant bits for
			// the c==0 short path; mirror the writer exactly.
			if shift == 0 {
				return g, nil
			}
			return v, nil
		}
		shift += 4
	}
}

func (r *bitReader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *bitReader) float64bits() (float64, error) {
	v, err := r.readBits(64)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(v), nil
}

const maxStringLen = 1 << 20

func (r *bitReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", malformedf("string too long")
	}
	// The scratch grows only as bytes are read: a declared length sizes
	// nothing.
	b := r.buf[:0]
	for ; n > 0; n-- {
		v, err := r.readBits(8)
		if err != nil {
			return "", err
		}
		b = append(b, byte(v))
	}
	r.buf = b
	return string(b), nil
}

func (r *bitReader) bit() (bool, error) {
	v, err := r.readBits(1)
	if err != nil {
		return false, err
	}
	return v == 1, nil
}

// setProd is a no-op for the fixed-probability code.
func (r *bitReader) setProd(int) {}

// end enforces the canonical tail: any unconsumed bits of the current
// byte must be the encoder's zero padding, and the byte source must be
// exhausted. Trailing garbage after the final production is rejected so
// every admissible unit has exactly one on-the-wire spelling.
func (r *bitReader) end() error {
	if r.cur != 0 {
		return malformedf("nonzero padding after the final production")
	}
	if _, err := r.src.ReadByte(); err == nil {
		return malformedf("trailing data after the final production")
	}
	return nil
}
