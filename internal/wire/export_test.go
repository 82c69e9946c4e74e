package wire

import "safetsa/internal/core"

// Retired reports whether su's decoder has dropped what only decoding
// another body would use (decoder.retire).
func Retired(su *StreamingUnit) bool {
	d := &su.d
	ac, _ := d.r.(*acReader)
	return d.adm == nil && d.sitePos == nil && d.rf.planes == nil && d.kids == nil &&
		(ac == nil || ac.mdl == nil)
}

// EncodeHead is a v1 unit's head — magic, m's tables, and a function
// count of n — with no body after it: a head may declare what it likes.
func EncodeHead(m *core.Module, n int) []byte {
	w := &bitWriter{}
	for _, b := range magic {
		w.writeBits(uint64(b), 8)
	}
	head := *m
	head.Funcs = make([]*core.Func, n)
	(&encoder{m: &head, w: w}).encodeTables()
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
