package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sort"

	"safetsa/internal/core"
)

// Dictionary is a shared compression dictionary trained over a
// distribution bundle: a string table for names that recur across
// units, plus trained initial probabilities for the adaptive model.
// A dictionary only ever primes the model — it is re-validated content
// like a peer fill, never trusted: every string pulled from it still
// passes the same structural admission checks as an inline string, so
// a hostile dictionary can change compression, not admissibility.
type Dictionary struct {
	// ID is the first 8 bytes of the SHA-256 of the serialized body;
	// v2 streams that use a dictionary carry it in the header so the
	// consumer can detect a mismatched dictionary before decoding.
	ID      [8]byte
	Strings []string
	// Probs is a full snapshot of the model's probability words in
	// eachProb order (see model.go) — each a probability and the count of
	// decisions that trained it, so a primed probability adapts at the
	// rate its count has reached — or empty to start from the prior.
	Probs []uint16
}

// dictVersion 2 carries trained counts in its words; version 1's were
// bare probabilities, and are refused.
const (
	maxDictStrings = 4096
	dictVersion    = 2
)

var dictMagic = [4]byte{'S', 'T', 'S', 'D'}

// strCollector is a symWriter that records only the strings a module
// puts on the wire — running the real encoder over it yields exactly
// the dictionary-eligible string population.
type strCollector struct{ counts map[string]int }

func (c *strCollector) bit(bool)            {}
func (c *strCollector) symbol(int, int)     {}
func (c *strCollector) opcode(int)          {}
func (c *strCollector) level(int, int)      {}
func (c *strCollector) register(int, int)   {}
func (c *strCollector) cstKind(int, int)    {}
func (c *strCollector) uvarint(uint64)      {}
func (c *strCollector) svarint(int64)       {}
func (c *strCollector) float64bits(float64) {}
func (c *strCollector) str(s string)        { c.counts[s]++ }
func (c *strCollector) setProd(int)         {}

// TrainDictionary builds a dictionary over a distribution bundle: the
// string table holds every string that appears at least twice across
// the bundle (capped, most frequent first), and the probabilities are
// the adaptive model's state after encoding the whole bundle from the
// trained prior — so a fresh unit starts from the bundle's learned symbol
// statistics as well as the prior's.
func TrainDictionary(mods []*core.Module) *Dictionary {
	c := &strCollector{counts: make(map[string]int)}
	for _, m := range mods {
		(&encoder{m: m, w: c}).encodeAll()
	}
	var names []string
	for s, n := range c.counts {
		if n >= 2 && len(s) >= 2 {
			names = append(names, s)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if c.counts[names[i]] != c.counts[names[j]] {
			return c.counts[names[i]] > c.counts[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > maxDictStrings {
		names = names[:maxDictStrings]
	}

	mdl := newModel(nil, nil)
	mdl.train(mods)

	d := &Dictionary{Strings: names, Probs: mdl.snapshot()}
	d.ID = dictID(d.body())
	return d
}

func dictID(body []byte) [8]byte {
	sum := sha256.Sum256(body)
	var id [8]byte
	copy(id[:], sum[:8])
	return id
}

func (d *Dictionary) body() []byte {
	var b []byte
	b = appendLEB(b, uint64(len(d.Strings)))
	for _, s := range d.Strings {
		b = appendLEB(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = appendLEB(b, uint64(len(d.Probs)))
	for _, p := range d.Probs {
		b = binary.LittleEndian.AppendUint16(b, p)
	}
	return b
}

// Bytes serializes the dictionary for distribution alongside a bundle.
func (d *Dictionary) Bytes() []byte {
	out := append([]byte{}, dictMagic[:]...)
	out = append(out, dictVersion)
	return append(out, d.body()...)
}

// ParseDictionary reads and fully validates a serialized dictionary.
// Like any unit off the wire, a dictionary is untrusted input: every
// bound is checked here, and nothing in it can widen what the decoder
// admits — it only redistributes code space.
func ParseDictionary(data []byte) (*Dictionary, error) {
	if len(data) < 5 || string(data[:4]) != string(dictMagic[:]) {
		return nil, malformedf("bad dictionary magic")
	}
	if data[4] != dictVersion {
		return nil, malformedf("unsupported dictionary version %d", data[4])
	}
	body := data[5:]
	r := &sliceByteReader{buf: body}
	ns, err := readLEB(r)
	if err != nil {
		return nil, err
	}
	if ns > maxDictStrings {
		return nil, malformedf("dictionary string table too large")
	}
	d := &Dictionary{}
	seen := make(map[string]bool, ns)
	for i := uint64(0); i < ns; i++ {
		sl, err := readLEB(r)
		if err != nil {
			return nil, err
		}
		if sl > maxStringLen {
			return nil, malformedf("dictionary string too long")
		}
		if uint64(len(r.buf)-r.off) < sl {
			return nil, malformedf("stream truncated")
		}
		s := string(r.buf[r.off : r.off+int(sl)])
		r.off += int(sl)
		if seen[s] {
			return nil, malformedf("dictionary string %q duplicated", s)
		}
		seen[s] = true
		d.Strings = append(d.Strings, s)
	}
	np, err := readLEB(r)
	if err != nil {
		return nil, err
	}
	if np != 0 {
		if np != uint64(modelProbCount) {
			return nil, malformedf("dictionary probability snapshot has wrong length")
		}
		d.Probs = make([]uint16, np)
		for i := range d.Probs {
			if len(r.buf)-r.off < 2 {
				return nil, malformedf("stream truncated")
			}
			p := binary.LittleEndian.Uint16(r.buf[r.off:])
			r.off += 2
			if p&probMask == 0 {
				return nil, malformedf("dictionary probability out of range")
			}
			if p>>probBits > countMax {
				return nil, malformedf("dictionary decision count out of range")
			}
			d.Probs[i] = p
		}
	}
	if r.off != len(r.buf) {
		return nil, malformedf("trailing data after dictionary")
	}
	d.ID = dictID(body)
	return d, nil
}

type sliceByteReader struct {
	buf []byte
	off int
}

func (r *sliceByteReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// appendLEB / readLEB are the byte-level varint used by container
// framing (dictionary bodies, the v2 payload length) — distinct from
// the bit-level uvarint inside the symbol stream.
func appendLEB(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func readLEB(src io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := src.ReadByte()
		if err != nil {
			return 0, malformedf("stream truncated")
		}
		if shift >= 63 && b > 1 {
			return 0, malformedf("varint overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
