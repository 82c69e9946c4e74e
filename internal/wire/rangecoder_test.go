package wire

import (
	"math/bits"
	"testing"
)

// TestAdaptKeepsTheRangeOpen runs the update rule over every probability
// word and both bits. A probability of 0 or probOne would make a bound of
// 0 and spin the coder's renormalization forever, so after any update the
// probability is in [1, probOne-1]; the count is at most countMax, one
// more than before until it saturates; the probability moves toward the
// bit by the schedule's shift, clamp(bits.Len(c+3)-1, 1, probMoveBits).
// For every word a model can hold, the encoder's and the decoder's
// decisions (encodeBit, decodeBit) leave the same word.
func TestAdaptKeepsTheRangeOpen(t *testing.T) {
	for w := 0; w < 1<<16; w++ {
		pv, c := w&probMask, w>>probBits
		s := min(max(bits.Len(uint(c+3))-1, 1), probMoveBits)
		for bit := 0; bit < 2; bit++ {
			got := adapt(uint16(w), -uint32(bit))
			gp, gc := int(got&probMask), int(got>>probBits)
			if gp < 1 || gp > probOne-1 || gc > countMax {
				t.Fatalf("word %#04x, bit %d: probability %d, count %d", w, bit, gp, gc)
			}
			if gc != min(c+1, countMax) {
				t.Fatalf("word %#04x: count %d after a decision, want %d", w, gc, min(c+1, countMax))
			}
			want := pv + (probOne-pv)>>s
			if bit == 1 {
				want = max(pv-pv>>s, 1)
			}
			if gp != want {
				t.Fatalf("word %#04x, bit %d: probability %d, want %d (shift %d)", w, bit, gp, want, s)
			}
			if pv == 0 || c > countMax {
				continue // no model holds it
			}
			e := rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
			enc := uint16(w)
			e.encodeBit(&enc, bit)
			// A code of 0 falls below any bound; one of the range less 1
			// at or above it.
			cod := uint32(0)
			if bit == 1 {
				cod = 0xFFFFFFFE
			}
			d := rcDecoder{rng: 0xFFFFFFFF, cod: cod, src: &byteSource{}}
			dec := uint16(w)
			if b := d.decodeBit(&dec); b != bit || enc != got || dec != got {
				t.Fatalf("word %#04x, bit %d: encodeBit leaves %#04x, decodeBit %#04x (bit %d), adapt %#04x", w, bit, enc, dec, b, got)
			}
		}
	}
}
