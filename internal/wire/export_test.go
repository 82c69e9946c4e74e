package wire

// Retired reports whether su's decoder has dropped what only decoding
// another body would use (decoder.retire).
func Retired(su *StreamingUnit) bool {
	d := &su.d
	ac, _ := d.r.(*acReader)
	return d.adm == nil && d.sitePos == nil && d.rf.index == nil && d.kids == nil &&
		(ac == nil || ac.mdl == nil)
}
