package wire

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"safetsa/internal/core"
)

// TestModelTemplate: the template newModel copies is the embedded prior
// parsed through ParseDictionary's word checks, word for word in eachProb
// order; the count a dictionary must carry is its length; and a new model
// is a copy of its own, so a coder adapting it leaves the template and
// every later model at the prior.
func TestModelTemplate(t *testing.T) {
	d, err := ParseDictionary(prior)
	if err != nil || len(d.Strings) != 0 {
		t.Fatalf("the prior does not parse as a dictionary of probabilities alone: %v", err)
	}
	var want model
	n := 0
	want.eachProb(func(p *uint16) { *p = d.Probs[n]; n++ })
	m := newModel(nil, nil)
	if !reflect.DeepEqual(*m, want) {
		t.Fatal("newModel(nil, nil) is not the parsed prior")
	}
	// A symCtx is 120 tree nodes (1+3+7+15+31+63 for widths 1 to 5 and
	// the class of widths 6 and up) and 18 deep positions (6 to 23): 138.
	// A production is a symCtx, 8 flags, 16 continuations and 16x4
	// payload bits: 226, times 26 productions is 5 876. Add the opcode
	// trees (22 of 31 nodes: 682), the CST kinds' trees (20 of 15 nodes:
	// 300), the reference contexts (l, r near, r far: 414), 256
	// literal-byte nodes, and a flag and a symCtx each for the
	// dictionary's strings and the unit's own (278): 7 806.
	const count = 7806
	if n != modelProbCount || n != count || len(d.Probs) != count {
		t.Errorf("eachProb visits %d probabilities, modelProbCount is %d, the prior has %d; want all %d",
			n, modelProbCount, len(d.Probs), count)
	}
	m.prods[prodTables].sym.tree[0], m.lit[1], m.dictSym.deep[0] = 1, 2, 3
	if !reflect.DeepEqual(modelTemplate, want) || !reflect.DeepEqual(*newModel(nil, nil), want) {
		t.Error("adapting one model changed the template")
	}
}

// TestAdaptiveSymbolRoundTrip codes a script of symbols through one
// acWriter and decodes it back through one acReader, both primed by one
// dictionary's strings:
//
//   - every v of every alphabet n in [1, 1024], the alphabets' productions
//     interleaved and the symbols spread over the three kinds of context
//     (an immediate, an l, an r). Widths run from 0 to 10 bits, so every
//     width class, the class cap (symWidthCap) and the per-position
//     probabilities below the tree (symTreeDepth) are decided, each
//     against probabilities earlier alphabets have moved;
//   - runs of opcodes in 300 blocks, each decided in the tree of the one
//     before it, which a block's start resets to OpInvalid's;
//   - every CST kind in every context of a CST node's kind, the contexts
//     interleaved;
//   - strings by every path: a literal, the empty one included, a
//     reference to the dictionary's table, one to the strings the unit has
//     sent — among them the first, after 1 000 others.
func TestAdaptiveSymbolRoundTrip(t *testing.T) {
	const maxN = 1024
	if bits.Len(maxN-1) <= max(symTreeDepth, symWidthCap) {
		t.Fatalf("alphabets up to %d do not reach past the tree and the class cap", maxN)
	}
	type step struct {
		kind string // "prod", "symbol", "level", "register", "opcode", "cst" or "str"
		v, n int
		s    string
	}
	var script []step
	for n := 1; n <= maxN; n++ {
		script = append(script, step{kind: "prod", v: n % numProd})
		for v := 0; v < n; v++ {
			script = append(script, step{kind: [3]string{"symbol", "level", "register"}[(v+n)%3], v: v, n: n})
		}
	}
	for b := 0; b < 300; b++ {
		script = append(script, step{kind: "prod", v: prodBlock})
		for i := 0; i < b%11; i++ {
			op := (b*7 + i*i*5) % core.NumOps
			script = append(script, step{kind: "opcode", v: op}, step{kind: "prod", v: op},
				step{kind: "symbol", v: b % 3, n: 3})
		}
	}
	for v := 0; v < core.NumCSTKinds; v++ {
		for ctx := 0; ctx < numCSTCtx; ctx++ {
			script = append(script, step{kind: "cst", v: (v + ctx) % core.NumCSTKinds, n: ctx})
		}
	}
	for _, s := range []string{"", "a", "", "dict0", "a", "dict1", "b"} {
		script = append(script, step{kind: "str", s: s})
	}
	for i := 0; i < 1000; i++ {
		script = append(script, step{kind: "str", s: fmt.Sprint("s", i)})
	}
	for _, s := range []string{"", "s999", "a", "dict0", "s0", "b", "s500", ""} {
		script = append(script, step{kind: "str", s: s})
	}

	dict := &Dictionary{Strings: []string{"dict0", "dict1"}}
	w := &acWriter{mdl: newModel(dict, nil), rc: newRCEncoder()}
	for _, st := range script {
		switch st.kind {
		case "prod":
			w.setProd(st.v)
		case "symbol":
			w.symbol(st.v, st.n)
		case "level":
			w.level(st.v, st.n)
		case "register":
			w.register(st.v, st.n)
		case "opcode":
			w.opcode(st.v)
		case "cst":
			w.cstKind(st.v, st.n)
		case "str":
			w.str(st.s)
		}
	}
	data := w.finish()
	r, err := newACReader(&byteSource{data: data}, dict, int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range script {
		var got int
		var s string
		switch st.kind {
		case "prod":
			r.setProd(st.v)
			continue
		case "symbol":
			got, err = r.symbol(st.n)
		case "level":
			got, err = r.level(st.n)
		case "register":
			got, err = r.register(st.n)
		case "opcode":
			got, err = r.opcode()
		case "cst":
			got, err = r.cstKind(st.n)
		case "str":
			if s, err = r.str(); err != nil || s != st.s {
				t.Fatalf("step %d: string %q decoded as %q (%v)", i, st.s, s, err)
			}
			continue
		}
		if err != nil || got != st.v {
			t.Fatalf("step %d: %s %d of an alphabet of %d decoded as %d (%v)", i, st.kind, st.v, st.n, got, err)
		}
	}
	if err := r.end(); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderKeepsNoStrings: EncodeV2 clears the index of the strings its
// unit sent before it returns, so an Encoder kept for the next module
// holds none of this one's, and Rewind counts the room the index grew.
func TestEncoderKeepsNoStrings(t *testing.T) {
	const n = 1000
	tt := core.NewTypeTable()
	m := &core.Module{Types: tt, Entry: -1}
	for i := 0; i < n; i++ {
		m.Fields = append(m.Fields, core.FieldRef{Owner: tt.Object, Name: fmt.Sprint("f", i), Type: tt.Int, Static: true, Slot: int32(i)})
	}
	var e Encoder
	e.EncodeV2(&core.Module{Types: tt, Entry: -1}, nil)
	before := e.Rewind()
	e.EncodeV2(m, nil)
	if len(e.seen) != 0 || e.aw.seen != nil {
		t.Fatalf("the Encoder holds %d strings of the unit it encoded", len(e.seen))
	}
	if e.seenPeak != n {
		t.Errorf("the index had room for %d strings, want %d", e.seenPeak, n)
	}
	if got := e.Rewind(); got-before < seenEntryBytes*n {
		t.Errorf("Rewind counts %d B after indexing %d strings, %d B before", got, n, before)
	}
}
