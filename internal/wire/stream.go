package wire

import (
	"bytes"
	"fmt"
	"io"

	"safetsa/internal/core"
)

// StreamingUnit is a distribution unit being decoded and admitted
// incrementally behind an io.Reader: a cursor over the one decode-admit
// step, advanced by whoever needs the next function. The symbol tables
// are complete and statically verified (core.Module.VerifyTables) before
// the constructor returns; after that nothing is read until the consumer
// asks. WaitFunc(i) decodes and admits forward, on the caller's
// goroutine, until function i is admitted — so a session may begin
// executing before the last byte has arrived, and reads the next bytes
// itself when it calls a body that has not. Any failure, at any point,
// latches and poisons the whole unit: WaitFunc and Wait report it, and
// nothing may be cached unless Wait returns nil.
//
// A cursor either retains or consumes what it admits. A retaining cursor
// (DecodeVerifiedStream, OpenVerified) appends each body to Mod.Funcs,
// whose memory is the unit's. A consuming one (DecodeConsumingStream)
// hands each body to its consumer (Consume) and then reuses the body's
// memory for the next: Mod.Funcs stays empty, and the cursor counts what
// it admitted instead (Ready, NumInstrs).
//
// A StreamingUnit is not safe for concurrent use, and nothing in this
// package starts a goroutine or takes a lock: whoever pulls serialises
// the pulls. The stream door's cursor is pulled by its one session; a
// resident unit's cursor (OpenVerified) by every session of the unit,
// under the lock of the compiled form it backs (interp.Pulled).
//
// Soundness (DESIGN.md §11): the admitted prefix is exactly as
// trustworthy as a fully decoded unit because (a) the tables are
// immutable and statically verified up front, and (b) Admit for
// function j depends only on those tables and on body j — so running it
// when j is first called or after everything has arrived is the same
// computation, and Module.Verify is by definition that rule for every j.
type StreamingUnit struct {
	// Mod has complete, verified tables from construction time. A
	// retaining cursor's Funcs grows by append, one admitted function at a
	// time: it never holds a slot admission has not passed.
	Mod *core.Module

	d      decoder     // in place: a unit is opened with one allocation
	src    *byteSource // nil over memory (decodeUnit, OpenVerified), which asks no Offset
	verify bool        // Admit each body; false is DecodeModule's link-only rule

	// consume receives each body once it is admitted (Consume).
	consume func(j int, f *core.Func) error
	// ready counts the bodies admitted (and consumed), instrs their
	// instructions.
	ready, instrs int

	ended bool // every function admitted and the stream closed cleanly
	err   error
}

// DecodeVerifiedStream begins a streaming decode. It consumes the
// header and symbol tables (failing fast on anything a non-streaming
// decode would reject about them) and stops there: function bodies are
// decoded as WaitFunc, WaitEntry and Wait ask for them. The returned
// unit's Wait must return nil before the unit is treated as fully
// admitted.
func DecodeVerifiedStream(r io.Reader, o DecodeOptions) (*StreamingUnit, error) {
	src := &byteSource{r: r}
	su, err := openUnit(src, o, nil, false, false, true)
	if err != nil {
		return nil, err
	}
	su.src = src
	return su, nil
}

// DecodeConsumingStream is DecodeVerifiedStream for a consumer that keeps
// no body: the cursor decodes every body into a, hands it to the consumer
// once it is admitted (see Consume), and reuses its memory for the next
// body as soon as the consumer returns. So a stream costs the memory of
// its largest body, not of its sum, and a caller that keeps a for another
// stream (see Arena.Reusable) pays not even that again. Mod.Funcs stays
// empty; Ready and NumInstrs count what was admitted. a must not be used
// by anything else until the cursor is done with it.
func DecodeConsumingStream(r io.Reader, o DecodeOptions, a *Arena) (*StreamingUnit, error) {
	if a.src == nil {
		a.src = new(byteSource)
	}
	src := a.src
	src.r, src.i, src.n, src.off = r, 0, 0, 0
	a.recycle()
	a.rewind() // whatever a cursor that failed mid-body left
	su, err := openUnit(src, o, a, true, false, true)
	if err != nil {
		return nil, err
	}
	su.src = src
	return su, nil
}

// OpenVerified opens a cursor over a unit held in memory: it reads and
// verifies the header and the symbol tables, and nothing more. It is for
// bytes an earlier admission accepted whole — a unit resident in a store
// — whose bodies a consumer decodes again only as its guests call them.
// Each pull runs the rule that admission ran over the bytes it read, so
// a body pulled is the one it admitted, and a pull that fails means the
// bytes changed in memory. A cursor over memory has no Offset.
//
// The bodies, a v2 stream's adaptive model and the per-function scratch
// are carved from a, which the cursor is lent for as long as the unit
// lives (nil: an arena of the cursor's own): a must be new or reclaimed
// (Arena.Reclaim), and is the unit's until the caller reclaims it, once
// nothing reads the unit's bodies or pulls through the cursor any more.
func OpenVerified(data []byte, a *Arena) (*StreamingUnit, error) {
	return openUnit(bytes.NewReader(data), DecodeOptions{}, a, false, false, true)
}

// openUnit reads the container header and the symbol tables and returns
// the cursor standing before function 0: a retaining cursor in its own
// arena when a is nil, else a consuming or (lent a) retaining one over a.
func openUnit(src io.ByteReader, o DecodeOptions, a *Arena, consume, v1Only, verify bool) (*StreamingUnit, error) {
	su := &StreamingUnit{verify: verify}
	var mdl *model
	if a == nil {
		a = new(Arena) // the unit's, for as long as it lives
	} else {
		if a.mdl == nil {
			a.mdl = new(model)
		}
		a.recycle()
		mdl = a.mdl
		su.d.recycle, su.d.lent = consume, !consume
	}
	su.d.Arena = a
	su.advance(func() error {
		r, err := newStreamReader(src, o, mdl, v1Only)
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
// point: decode function j, admit it — the link rule only for the
// non-verifying DecodeModule, link plus body verification for
// DecodeVerified and the streams — hand it to the consumer, if there is
// one, and keep it in Mod.Funcs or take its memory back, until n functions
// are admitted. Nothing reaches the consumer or Mod.Funcs that admission
// rejected, and a module whose functions were all appended is one
// Module.Verify accepts (given verify), because Verify is this loop
// without the decoding.
func (su *StreamingUnit) pull(n int) error {
	d := &su.d
	for j := su.ready; j < n; j++ {
		f, err := su.admit(j)
		if d.recycle {
			d.rewind() // the body's memory, on every way out
		} else if err == nil {
			d.m.Funcs = append(d.m.Funcs, f)
		}
		if err != nil {
			return err
		}
	}
	if su.ready == d.nFuncs {
		d.retire()
	}
	return nil
}

// admit decodes function j, admits it and hands it to the consumer.
func (su *StreamingUnit) admit(j int) (*core.Func, error) {
	d := &su.d
	f, err := d.decodeFunc()
	if err != nil {
		return nil, fmt.Errorf("function %d: %w", j, err)
	}
	if su.verify {
		err = d.adm.Admit(j, f, core.VerifyOptions{Scratch: &d.pos})
	} else {
		err = d.adm.Link(j, f)
	}
	if err != nil {
		return nil, malformedf("%v", err)
	}
	if su.consume != nil {
		if err := su.consume(j, f); err != nil {
			return nil, fmt.Errorf("function %d: %w", j, err)
		}
	}
	su.ready++
	su.instrs += f.NumInstrs()
	return f, nil
}

// Consume names who receives each body the cursor admits from here on:
// consume(j, f) runs once function j is admitted, before any later body is
// decoded, and on a consuming cursor before f's memory is reused — so it
// must keep nothing of f. An error it returns ends the stream as a body
// admission rejected does. A nil consume only counts.
func (su *StreamingUnit) Consume(consume func(j int, f *core.Func) error) { su.consume = consume }

// NumFuncs reports the declared function count.
func (su *StreamingUnit) NumFuncs() int { return su.d.nFuncs }

// Ready reports how many functions (a prefix) are admitted so far.
func (su *StreamingUnit) Ready() int { return su.ready }

// NumInstrs counts the instructions of the functions admitted so far, as
// core.Module.NumInstrs counts a module's: once every function is, it is
// the unit's.
func (su *StreamingUnit) NumInstrs() int { return su.instrs }

// Offset reports how many bytes of the stream the decoder has consumed.
// After a nil WaitFunc(j) that had to pull, it is the offset just past
// function j — the cut points of the partial-delivery tests.
func (su *StreamingUnit) Offset() int64 { return su.src.off }

// WaitFunc returns nil once function i is admitted, decoding and
// admitting every function up to it that has not been yet, or the
// stream's error if one of those fails. This is the execution gate:
// after a nil return, function i is fully verified — standing in
// Mod.Funcs[i] on a retaining cursor, handed to the consumer on a
// consuming one.
func (su *StreamingUnit) WaitFunc(i int) error {
	if i < 0 || i >= su.d.nFuncs {
		return malformedf("function index %d out of range", i)
	}
	if i < su.ready {
		return nil
	}
	su.advance(func() error { return su.pull(i + 1) })
	return su.err
}

// WaitEntry admits every function needed to begin main — the static
// initializers and the entry method's body.
func (su *StreamingUnit) WaitEntry() error {
	// VerifyTables has put every index below in range.
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

// byteSource adapts an io.Reader to io.ByteReader with a small buffer
// and a consumed-byte count. It never reads ahead of demand more than
// the buffer size, and — critically for streaming — a short Read is
// accepted as-is, so bytes are handed to the decoder as soon as the
// transport delivers them.
type byteSource struct {
	r    io.Reader
	buf  [4096]byte
	i, n int
	off  int64
}

func (s *byteSource) ReadByte() (byte, error) {
	if s.i >= s.n {
		for {
			n, err := s.r.Read(s.buf[:])
			if n > 0 {
				s.i, s.n = 0, n
				break
			}
			if err != nil {
				return 0, err
			}
		}
	}
	b := s.buf[s.i]
	s.i++
	s.off++
	return b, nil
}
