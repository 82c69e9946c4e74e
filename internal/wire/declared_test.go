package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"safetsa/internal/core"
)

// declaring returns, per wire version, a stream whose symbols are what
// body writes and then nothing: the stream's last act is to declare a
// count it does not honour.
func declaring(body func(w symWriter)) map[string][]byte {
	bw := &bitWriter{}
	for _, b := range magic {
		bw.writeBits(uint64(b), 8)
	}
	body(bw)

	aw := &acWriter{mdl: newModel(nil, nil), rc: newRCEncoder()}
	body(aw)
	payload := aw.finish()
	v2 := appendLEB([]byte{'S', 'T', 'S', versionV2, 0, modelAdaptive}, uint64(len(payload)))

	return map[string][]byte{"v1": bw.bytes(), "v2": append(v2, payload...)}
}

// TestDeclaredCountsAllocateNothing: a few bytes that announce 1<<22
// instructions, phis, CST children, parameters or fields (two of one
// name), or a 1 MiB string, and then stop must cost the consumer next to
// nothing — no slab, arena or presize takes its size from a count the
// stream only declares (4 M instructions would be a 450 MiB chunk).
func TestDeclaredCountsAllocateNothing(t *testing.T) {
	const declared = 1 << 22
	// m is a unit of one class M with one static method, whose body is the
	// unit's one function.
	tt := core.NewTypeTable()
	mc := tt.AddClass("M", tt.Object)
	m := &core.Module{Types: tt, Entry: -1, Classes: []*core.ClassDef{{Type: mc, Super: tt.Object}},
		StaticInit: []int32{-1}, Methods: []core.MethodRef{{Owner: mc, Name: "f", Result: tt.Void, Static: true}}}
	// body writes m's tables and opens the body.
	body := func(w symWriter) {
		(&encoder{m: m, w: w}).encodeTables()
		w.setProd(prodCST)
	}
	// method opens the method table's one entry, owned by M.
	method := func(w symWriter) {
		w.setProd(prodTables)
		w.uvarint(1) // types
		w.bit(false)
		w.str("M")
		w.symbol(int(tt.Object)-1, int(mc)-1)
		w.uvarint(0) // fields
		w.uvarint(1) // methods
		w.symbol(int(mc)-1, len(tt.ByID)-1)
	}
	cases := map[string]func(w symWriter){
		// A method's parameter list, in the method table.
		"parameters": func(w symWriter) {
			method(w)
			w.str("f")
			w.uvarint(declared)
		},
		"CST children": func(w symWriter) {
			body(w)
			w.cstKind(int(core.CSeq), cstRoot)
			w.uvarint(declared)
		},
		"phis": func(w symWriter) {
			// The entry block has no predecessors and may not declare
			// phis; the block after an if may.
			body(w)
			w.cstKind(int(core.CSeq), cstRoot)
			w.uvarint(3)
			w.cstKind(int(core.CBlock), cstFirst)
			w.cstKind(int(core.CIf), cstAfter+int(core.CBlock))
			w.bit(false)
			w.cstKind(int(core.CBlock), cstThen)
			w.cstKind(int(core.CBlock), cstAfter+int(core.CIf))
			for _, preds := range []int{0, 1} {
				w.setProd(phiProd(preds))
				w.uvarint(0)
				w.setProd(prodBlock)
				w.uvarint(0)
			}
			w.setProd(prodJoinPhis)
			w.uvarint(declared)
		},
		// A method's name declares the longest string a stream may and
		// then stops: the reader's scratch grows only with bytes it has
		// decoded.
		"string bytes": func(w symWriter) {
			method(w)
			w.uvarint(maxStringLen)
		},
		// The field table declares its count, and the second field's name
		// repeats the first's: a reference into the unit's string table
		// on v2, whose alphabet is what the stream has sent, not what it
		// declares.
		"string reference": func(w symWriter) {
			w.setProd(prodTables)
			w.uvarint(0) // types
			w.uvarint(declared)
			for i := 0; i < 2; i++ {
				w.symbol(int(tt.Object)-1, tt.ImplicitLen-1)
				w.str("f")
				w.symbol(int(tt.Int)-1, tt.ImplicitLen-1)
				w.bit(true)
				w.uvarint(uint64(i))
			}
		},
		"instructions": func(w symWriter) {
			body(w)
			w.cstKind(int(core.CBlock), cstRoot)
			w.setProd(prodPhis)
			w.uvarint(0)
			w.setProd(prodBlock)
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
		for version, data := range declaring(body) {
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
