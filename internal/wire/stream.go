package wire

import (
	"fmt"
	"io"

	"safetsa/internal/core"
)

// StreamingUnit is a distribution unit being decoded and admitted
// incrementally behind an io.Reader: a cursor over the one decode-admit
// step, advanced by whoever needs the next function. The symbol tables
// are complete, derived and statically verified
// (core.Module.DeriveTables) before the constructor returns; after that
// nothing is read until the consumer asks. WaitFunc(i) decodes and admits forward, on the caller's
// goroutine, until function i is admitted — so a session may begin
// executing before the last byte has arrived, and reads the next bytes
// itself when it calls a body that has not. Any failure, at any point,
// latches and poisons the whole unit: WaitFunc and Wait report it, and
// nothing may be cached unless Wait returns nil.
//
// A cursor keeps what it admits: each body is appended to Mod.Funcs, in
// memory that is the unit's — an arena of the cursor's own, or one it is
// lent (OpenVerified, DecodeVerifiedStreamIn).
//
// A StreamingUnit is not safe for concurrent use, and nothing in this
// package starts a goroutine or takes a lock: whoever pulls serialises
// the pulls. The stream door's cursor is pulled by its one session; a
// resident unit's cursor (OpenVerified) by every session of the unit,
// under the lock of the compiled form it backs (interp.PulledIn).
//
// Soundness (DESIGN.md §11): the admitted prefix is exactly as
// trustworthy as a fully decoded unit because (a) the tables are
// immutable and statically verified up front, and (b) admitting
// function j (core.Rules, called on each item as it is decoded: its link
// holds by construction, the body holding only the tables' claim on j)
// depends only on those tables and on body j — so running it
// when j is first called or after everything has arrived is the same
// computation, and Module.Verify drives the same rules for every j.
type StreamingUnit struct {
	// Mod has complete, verified tables from construction time. Its Funcs
	// grows by append, one admitted function at a time: it never holds a
	// slot admission has not passed.
	Mod *core.Module

	d   decoder    // in place: a unit is opened with one allocation
	src byteSource // the unit in memory, or the stream and its buffer

	ended bool // every function admitted and the stream closed cleanly
	err   error
}

// DecodeVerifiedStream begins a streaming decode. It consumes the
// header and symbol tables (failing fast on anything a non-streaming
// decode would reject about them) and stops there: function bodies are
// decoded as WaitFunc, WaitEntry and Wait ask for them. The returned
// unit's Wait must return nil before the unit is treated as fully
// admitted. The unit's memory is an arena of its own.
func DecodeVerifiedStream(r io.Reader, o DecodeOptions) (*StreamingUnit, error) {
	return DecodeVerifiedStreamIn(r, o, nil)
}

// DecodeVerifiedStreamIn is DecodeVerifiedStream into memory the caller
// lends: the bodies, a v2 stream's adaptive model, the per-function scratch
// and the read buffer are carved from a (nil: an arena of the cursor's
// own), as OpenVerified carves them. a must be new or rewound, and is the
// unit's until the caller rewinds it (Arena.Rewind), once nothing reads
// the unit's bodies or pulls through the cursor any more.
func DecodeVerifiedStreamIn(r io.Reader, o DecodeOptions, a *Arena) (*StreamingUnit, error) {
	var buf *[4096]byte
	if a == nil {
		buf = new([4096]byte)
	} else {
		if a.buf == nil {
			a.buf = new([4096]byte)
		}
		buf = a.buf
	}
	return openUnit(byteSource{r: r, buf: buf}, o, a, false, true)
}

// OpenVerified opens a cursor over a unit held in memory: it reads and
// verifies the header and the symbol tables, and nothing more. It is for
// bytes an earlier admission accepted whole — a unit resident in a store
// — whose bodies a consumer decodes again only as its guests call them.
// Each pull runs the rule that admission ran over the bytes it read, so
// a body pulled is the one it admitted, and a pull that fails means the
// bytes changed in memory.
//
// The bodies, a v2 stream's adaptive model and the per-function scratch
// are carved from a, which the cursor is lent for as long as the unit
// lives (nil: an arena of the cursor's own): a must be new or rewound
// (Arena.Rewind), and is the unit's until the caller rewinds it, once
// nothing reads the unit's bodies or pulls through the cursor any more.
func OpenVerified(data []byte, a *Arena) (*StreamingUnit, error) {
	return openUnit(byteSource{data: data}, DecodeOptions{}, a, false, true)
}

// openUnit reads the container header and the symbol tables and returns
// the cursor standing before function 0, decoding into a — or, when a is
// nil, into an arena of its own.
func openUnit(src byteSource, o DecodeOptions, a *Arena, v1Only, verify bool) (*StreamingUnit, error) {
	su := &StreamingUnit{src: src}
	su.d.verify = verify
	var mdl *model
	if a == nil {
		a = new(Arena) // the unit's, for as long as it lives
	} else {
		if a.mdl == nil {
			a.mdl = new(model)
		}
		a.recycle()
		mdl = a.mdl
		su.d.lent = true
	}
	su.d.Arena = a
	su.advance(func() error {
		r, err := newStreamReader(&su.src, o, mdl, v1Only)
		if err != nil {
			return err
		}
		err = su.d.decodeHead(r)
		su.Mod = su.d.m
		return err
	})
	if su.err != nil {
		return nil, su.err
	}
	return su, nil
}

// advance runs one piece of the decode under the cursor's two rules: a
// failure latches, and a structural panic while decoding is a malformed
// stream, never a crash to propagate. It holds the package's only
// recover.
func (su *StreamingUnit) advance(step func() error) {
	if su.err != nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			su.err = malformedf("invalid structure: %v", p)
		}
	}()
	su.err = step()
}

// pull is the one loop over function bodies, behind every decoder entry
// point: decode function j from its claim — admitting each item of the
// body through its rule as it is read, for DecodeVerified and the streams,
// nothing more for the non-verifying DecodeModule — and append it to
// Mod.Funcs, until n functions are admitted. Nothing reaches Mod.Funcs
// that admission rejected, and a module whose functions were all appended
// is one Module.Verify accepts (given verify), because Verify drives the
// same rules over the finished bodies: its link rule holds by
// construction for a body decoded from its claim.
func (su *StreamingUnit) pull(n int) error {
	d := &su.d
	for j := len(d.m.Funcs); j < n; j++ {
		f, err := d.decodeFunc(j)
		if err != nil {
			return fmt.Errorf("function %d: %w", j, err)
		}
		d.m.Funcs = append(d.m.Funcs, f)
	}
	if len(d.m.Funcs) == d.nFuncs {
		d.retire()
	}
	return nil
}

// NumFuncs reports the function count the body rule gives the tables.
func (su *StreamingUnit) NumFuncs() int { return su.d.nFuncs }

// Ready reports how many functions (a prefix) are admitted so far.
func (su *StreamingUnit) Ready() int { return len(su.Mod.Funcs) }

// Offset reports how many bytes of the stream the decoder has consumed.
// After a nil WaitFunc(j) that had to pull, it is the offset just past
// function j — the cut points of the partial-delivery tests.
func (su *StreamingUnit) Offset() int64 { return su.src.offset() }

// WaitFunc returns nil once function i is admitted, decoding and
// admitting every function up to it that has not been yet, or the
// stream's error if one of those fails. This is the execution gate:
// after a nil return, function i is fully verified and stands in
// Mod.Funcs[i].
func (su *StreamingUnit) WaitFunc(i int) error {
	if i < 0 || i >= su.d.nFuncs {
		return malformedf("function index %d out of range", i)
	}
	if i < len(su.Mod.Funcs) {
		return nil
	}
	su.advance(func() error { return su.pull(i + 1) })
	return su.err
}

// WaitEntry admits every function needed to begin main — the static
// initializers and the entry method's body.
func (su *StreamingUnit) WaitEntry() error {
	// DeriveTables has put every index below in range.
	need := -1
	for _, si := range su.Mod.StaticInit {
		need = max(need, int(si))
	}
	if e := su.Mod.Entry; e >= 0 {
		need = max(need, int(su.Mod.Methods[e].FuncIdx))
	}
	if need < 0 {
		return nil
	}
	return su.WaitFunc(need)
}

// Wait admits whatever remains of the unit and requires the stream to
// end cleanly. Only a nil return makes the unit cacheable; any
// mid-stream failure surfaces here even if execution of the admitted
// prefix already completed.
func (su *StreamingUnit) Wait() error {
	if su.ended {
		return nil
	}
	su.advance(func() error {
		if err := su.pull(su.d.nFuncs); err != nil {
			return err
		}
		// A distribution unit has exactly one spelling: anything after
		// the final production — trailing bytes, nonzero padding, or a
		// payload length that disagrees with the coder — is rejected.
		return su.d.r.end()
	})
	su.ended = su.err == nil
	return su.err
}

// byteSource is a decoder's input: a unit held in memory, or a stream
// read through a buffer. The bytes in hand are data, of which data[i:]
// are not consumed yet, and off is the offset of data[0], so the decoder
// stands at off+i. Over a stream, data is what one Read put in buf, read
// only once every byte in hand is consumed: a short Read is accepted
// as is, so bytes are handed to the decoder as soon as the transport
// delivers them, and nothing is read ahead of demand but the rest of that
// one Read.
type byteSource struct {
	data []byte
	i    int
	off  int64
	r    io.Reader   // nil over memory, where data is all there is
	buf  *[4096]byte // the read buffer, over a stream
}

// ReadByte takes the next byte.
func (s *byteSource) ReadByte() (byte, error) {
	if s.i == len(s.data) && !s.fill() {
		return 0, io.EOF
	}
	b := s.data[s.i]
	s.i++
	return b, nil
}

// fill reads the stream on into the buffer once every byte in hand is
// consumed; false at the end of the input.
func (s *byteSource) fill() bool {
	if s.r == nil {
		return false
	}
	for {
		n, err := s.r.Read(s.buf[:])
		if n > 0 {
			s.off += int64(len(s.data))
			s.data, s.i = s.buf[:n], 0
			return true
		}
		if err != nil {
			return false
		}
	}
}

// offset is how many bytes of the input the decoder has consumed.
func (s *byteSource) offset() int64 { return s.off + int64(s.i) }
