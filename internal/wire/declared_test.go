package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"safetsa/internal/core"
)

// declaring returns, per wire version, a stream whose module head is
// empty but for announcing funcs functions, followed by whatever body
// writes and then nothing: the stream's last act is to declare a count it
// does not honour.
func declaring(funcs int, body func(w symWriter)) map[string][]byte {
	head := &core.Module{Types: core.NewTypeTable(), Entry: -1, Funcs: make([]*core.Func, funcs)}

	bw := &bitWriter{}
	for _, b := range magic {
		bw.writeBits(uint64(b), 8)
	}
	(&encoder{m: head, w: bw}).encodeTables()
	body(bw)

	aw := &acWriter{mdl: newModel(nil, nil), rc: newRCEncoder()}
	(&encoder{m: head, w: aw}).encodeTables()
	body(aw)
	payload := aw.finish()
	v2 := appendLEB([]byte{'S', 'T', 'S', versionV2, modelAdaptive}, uint64(len(payload)))

	return map[string][]byte{"v1": bw.bytes(), "v2": append(v2, payload...)}
}

// TestDeclaredCountsAllocateNothing: a few bytes that announce 1<<22
// functions, instructions, phis, CST children or parameters, or a 1 MiB
// string, and then stop
// must cost the consumer next to nothing — no slab, arena or presize takes its
// size from a count the stream only declares (4 M instructions would be
// a 450 MiB chunk).
func TestDeclaredCountsAllocateNothing(t *testing.T) {
	const declared = 1 << 22
	tt := core.NewTypeTable()
	// sig opens a synthetic function of the given declared arity; void
	// closes the signature of one that really has no parameters.
	sig := func(w symWriter, params uint64) {
		w.setProd(prodSig)
		w.str("f")
		w.svarint(-1)
		w.uvarint(params)
	}
	void := func(w symWriter) {
		w.symbol(int(tt.Void)-1, len(tt.ByID)-1)
		w.setProd(prodCST)
	}
	cases := map[string]func(w symWriter){
		// The table section's own last count: no body follows at all.
		"functions":  func(symWriter) {},
		"parameters": func(w symWriter) { sig(w, declared) },
		"CST children": func(w symWriter) {
			sig(w, 0)
			void(w)
			w.symbol(int(core.CSeq), core.NumCSTKinds)
			w.uvarint(declared)
		},
		"phis": func(w symWriter) {
			// The entry block has no predecessors and may not declare
			// phis; the block after an if may.
			sig(w, 0)
			void(w)
			w.symbol(int(core.CSeq), core.NumCSTKinds)
			w.uvarint(3)
			w.symbol(int(core.CBlock), core.NumCSTKinds)
			w.symbol(int(core.CIf), core.NumCSTKinds)
			w.bit(false)
			w.symbol(int(core.CBlock), core.NumCSTKinds)
			w.symbol(int(core.CBlock), core.NumCSTKinds)
			for i := 0; i < 2; i++ {
				w.setProd(prodBlock)
				w.uvarint(0)
				w.uvarint(0)
			}
			w.setProd(prodBlock)
			w.uvarint(declared)
		},
		// The function's name declares the longest string a stream may
		// and then stops: the reader's scratch grows only with bytes it
		// has decoded.
		"string bytes": func(w symWriter) {
			w.setProd(prodSig)
			w.uvarint(maxStringLen)
		},
		"instructions": func(w symWriter) {
			sig(w, 0)
			void(w)
			w.symbol(int(core.CBlock), core.NumCSTKinds)
			w.setProd(prodBlock)
			w.uvarint(0)
			w.uvarint(declared)
		},
	}
	entries := map[string]func([]byte) error{
		"DecodeModule":   func(b []byte) error { _, err := DecodeModule(b); return err },
		"DecodeVerified": func(b []byte) error { _, err := DecodeVerified(b); return err },
		"DecodeVerifiedStream": func(b []byte) error {
			su, err := DecodeVerifiedStream(bytes.NewReader(b), DecodeOptions{})
			if err != nil {
				return err
			}
			return su.Wait()
		},
	}
	for what, body := range cases {
		funcs := 1
		if what == "functions" {
			funcs = declared
		}
		for version, data := range declaring(funcs, body) {
			for entry, decode := range entries {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := decode(data)
				runtime.ReadMemStats(&after)
				name := what + "/" + version + "/" + entry
				if !errors.Is(err, ErrMalformed) {
					t.Errorf("%s: %d bytes declaring %d: got %v, want ErrMalformed", name, len(data), declared, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
					t.Errorf("%s: rejecting %d bytes allocated %d bytes", name, len(data), got)
				}
			}
		}
	}
}

// TestArenaReusableBound: an arena a unit made hold more than
// core.MaxUnitArenaBytes is not worth keeping for another unit, and
// rewinding it does not make it so: its chunks are kept, and its stock
// drops it instead of keeping it.
func TestArenaReusableBound(t *testing.T) {
	var a Arena
	a.recycle()
	a.instrs.Take(1000)
	if n := a.Rewind(); n > core.MaxUnitArenaBytes {
		t.Fatalf("an arena that held 1000 instructions holds %d B, over the cap", n)
	}
	a.args.Take(core.MaxUnitArenaBytes/4 + 1)
	if n := a.Rewind(); n <= core.MaxUnitArenaBytes {
		t.Fatalf("an arena holding %d operands holds %d B, within the cap", core.MaxUnitArenaBytes/4+1, n)
	}
}
