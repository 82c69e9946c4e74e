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
