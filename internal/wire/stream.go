package wire

import (
	"io"
	"sync"

	"safetsa/internal/core"
)

// StreamingUnit is a distribution unit being decoded and verified
// incrementally behind an io.Reader: the second schedule of the one
// admission rule. The symbol tables are complete and statically verified
// (core.Module.VerifyTables) before the constructor returns; function
// bodies then pass through the same decode-admit loop DecodeVerified
// runs, on a goroutine, each published the moment core.Admission.Admit
// accepts it. A consumer may begin executing any admitted function —
// WaitFunc provides the gate — while later functions are still in
// flight. Any failure, at any point, poisons the whole unit: WaitFunc
// and Wait report the error, and nothing may be cached unless Wait
// returns nil.
//
// Soundness (DESIGN.md §11): the admitted prefix is exactly as
// trustworthy as a fully decoded unit because (a) the tables are
// immutable and statically verified up front, and (b) Admit for
// function j depends only on those tables and on body j — so running it
// when j arrives or after everything has arrived is the same
// computation, and Module.Verify is by definition that rule for every j.
type StreamingUnit struct {
	// Mod has complete, verified tables from construction time. Funcs
	// is pre-sized; slot i is published only after function i is
	// admitted (synchronized through WaitFunc).
	Mod *core.Module

	nFuncs    int
	entryNeed int // highest func index needed to begin main, -1 if none

	mu         sync.Mutex
	cond       *sync.Cond
	ready      int
	done       bool
	err        error
	boundaries []int64
}

// DecodeVerifiedStream begins a streaming decode. It consumes the
// header and symbol tables synchronously (failing fast on anything a
// non-streaming decode would reject about them) and decodes the
// function bodies on a background goroutine. The returned unit's Wait
// must return nil before the unit is treated as fully admitted.
func DecodeVerifiedStream(r io.Reader, o DecodeOptions) (su *StreamingUnit, err error) {
	defer func() {
		if p := recover(); p != nil {
			su, err = nil, malformedf("invalid structure: %v", p)
		}
	}()
	src := &byteSource{r: r}
	sr, err := newStreamReader(src, o, false)
	if err != nil {
		return nil, err
	}
	d, err := decodeHead(sr)
	if err != nil {
		return nil, err
	}

	su = &StreamingUnit{Mod: d.m, nFuncs: d.nFuncs, entryNeed: -1}
	su.cond = sync.NewCond(&su.mu)
	// VerifyTables has put every index below in range.
	for _, si := range d.m.StaticInit {
		su.entryNeed = max(su.entryNeed, int(si))
	}
	if d.m.Entry >= 0 {
		su.entryNeed = max(su.entryNeed, int(d.m.Methods[d.m.Entry].FuncIdx))
	}

	d.m.Funcs = make([]*core.Func, d.nFuncs)
	go su.run(d, src)
	return su, nil
}

// run is the background schedule of admitFuncs: each admitted function
// is published to waiters before the next is decoded.
func (su *StreamingUnit) run(d *decoder, src *byteSource) {
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = malformedf("invalid structure: %v", p)
			}
		}()
		return d.admitFuncs(true, func(j int, f *core.Func) {
			su.mu.Lock()
			su.Mod.Funcs[j] = f
			su.ready = j + 1
			su.boundaries = append(su.boundaries, src.off)
			su.cond.Broadcast()
			su.mu.Unlock()
		})
	}()
	su.mu.Lock()
	su.done = true
	su.err = err
	su.cond.Broadcast()
	su.mu.Unlock()
}

// NumFuncs reports the declared function count.
func (su *StreamingUnit) NumFuncs() int { return su.nFuncs }

// Ready reports how many functions (a prefix) are currently admitted.
func (su *StreamingUnit) Ready() int {
	su.mu.Lock()
	defer su.mu.Unlock()
	return su.ready
}

// WaitFunc blocks until function i has been admitted, returning nil,
// or until the stream has failed, returning its error. This is the
// execution gate: after a nil return, Mod.Funcs[i] is published and
// fully verified.
func (su *StreamingUnit) WaitFunc(i int) error {
	if i < 0 || i >= su.nFuncs {
		return malformedf("function index %d out of range", i)
	}
	su.mu.Lock()
	defer su.mu.Unlock()
	for su.ready <= i && !su.done {
		su.cond.Wait()
	}
	if su.ready > i {
		return nil
	}
	return su.streamErr()
}

// WaitEntry blocks until every function needed to begin main — the
// static initializers and the entry method's body — has been admitted.
func (su *StreamingUnit) WaitEntry() error {
	if su.entryNeed < 0 {
		return nil
	}
	return su.WaitFunc(su.entryNeed)
}

// Wait blocks until the entire unit is decoded, verified, and ended
// cleanly. Only a nil return makes the unit cacheable; any mid-stream
// failure surfaces here even if execution of the admitted prefix
// already completed.
func (su *StreamingUnit) Wait() error {
	su.mu.Lock()
	defer su.mu.Unlock()
	for !su.done {
		su.cond.Wait()
	}
	return su.err
}

// Err reports the stream's terminal error without blocking (nil while
// in flight or on success).
func (su *StreamingUnit) Err() error {
	su.mu.Lock()
	defer su.mu.Unlock()
	if !su.done {
		return nil
	}
	return su.err
}

func (su *StreamingUnit) streamErr() error {
	if su.err != nil {
		return su.err
	}
	return malformedf("stream ended before the requested function")
}

// Boundaries returns the byte offset just past each function, valid
// after Wait returns nil — the cut points for partial-delivery tests.
func (su *StreamingUnit) Boundaries() []int64 {
	su.mu.Lock()
	defer su.mu.Unlock()
	return append([]int64(nil), su.boundaries...)
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
