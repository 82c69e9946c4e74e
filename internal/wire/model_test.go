package wire

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestModelTemplate: the template newModel copies is the model eachProb
// initialises, probability for probability; the count a dictionary must
// carry is its length; and a new model is a copy of its own, so a coder
// adapting it leaves the template and every later model at probInit.
func TestModelTemplate(t *testing.T) {
	var want model
	n := 0
	want.eachProb(func(p *uint16) { *p = probInit; n++ })
	m := newModel(nil, nil)
	if !reflect.DeepEqual(*m, want) {
		t.Fatal("newModel(nil, nil) is not the eachProb-initialised model")
	}
	// A symCtx is 120 tree nodes (1+3+7+15+31+63 for widths 1 to 5 and
	// the class of widths 6 and up) and 18 deep positions (6 to 23): 138.
	// A production is a symCtx, 8 flags, 16 continuations and 16x4
	// payload bits: 226, times 27 productions is 6 102. Add the reference
	// contexts (l, r near, r far: 414), 256 literal-byte nodes, the
	// dictionary flag and the dictionary's symCtx (138): 6 911.
	const count = 6911
	if n != modelProbCount || n != count {
		t.Errorf("eachProb visits %d probabilities, modelProbCount is %d; want both %d", n, modelProbCount, count)
	}
	m.prods[prodOp].sym.tree[0], m.lit[1], m.dictSym.deep[0] = 1, 2, 3
	if !reflect.DeepEqual(modelTemplate, want) || !reflect.DeepEqual(*newModel(nil, nil), want) {
		t.Error("adapting one model changed the template")
	}
}

// TestAdaptiveSymbolRoundTrip codes every v of every alphabet n in
// [1, 1024] through one acWriter, the alphabets' productions interleaved
// and the symbols spread over the three kinds of context (an immediate,
// an l, an r), and decodes the stream back through one acReader. Widths
// run from 0 to 10 bits, so every width class, the class cap
// (symWidthCap) and the per-position probabilities below the tree
// (symTreeDepth) are decided, each against probabilities earlier
// alphabets have moved.
func TestAdaptiveSymbolRoundTrip(t *testing.T) {
	const maxN = 1024
	if bits.Len(maxN-1) <= max(symTreeDepth, symWidthCap) {
		t.Fatalf("alphabets up to %d do not reach past the tree and the class cap", maxN)
	}
	kind := func(v, n int) int { return (v + n) % 3 }
	w := &acWriter{mdl: newModel(nil, nil), rc: newRCEncoder()}
	for n := 1; n <= maxN; n++ {
		w.setProd(n % numProd)
		for v := 0; v < n; v++ {
			switch kind(v, n) {
			case 0:
				w.symbol(v, n)
			case 1:
				w.level(v, n)
			default:
				w.register(v, n)
			}
		}
	}
	data := w.finish()
	r, err := newACReader(&byteSource{data: data}, nil, int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= maxN; n++ {
		r.setProd(n % numProd)
		for v := 0; v < n; v++ {
			var got int
			switch kind(v, n) {
			case 0:
				got, err = r.symbol(n)
			case 1:
				got, err = r.level(n)
			default:
				got, err = r.register(n)
			}
			if err != nil || got != v {
				t.Fatalf("symbol %d of an alphabet of %d decoded as %d (%v)", v, n, got, err)
			}
		}
	}
	if err := r.end(); err != nil {
		t.Fatal(err)
	}
}
