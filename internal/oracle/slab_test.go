package oracle

import (
	"bytes"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// unslab rebuilds f, a body of mod, out of individually allocated blocks, instructions,
// nodes and vectors — memory no two pieces of which can alias — with the
// same value ids, edges and structure.
func unslab(t *testing.T, mod *core.Module, f *core.Func) *core.Func {
	g := core.NewFunc(f.Claim)

	blocks := map[*core.Block]*core.Block{}
	for _, b := range f.Blocks {
		blocks[b] = g.NewBlock()
	}
	instrs := map[*core.Instr]*core.Instr{}
	clone := func(in *core.Instr) *core.Instr {
		if c := instrs[in]; c != nil {
			return c
		}
		c := *in
		c.Args = append([]core.ValueID(nil), in.Args...)
		c.Blk = blocks[in.Blk]
		instrs[in] = &c
		return &c
	}
	// Define hands ids out in order, so values are cloned in id order.
	for id := core.ValueID(1); int(id) <= f.NumValues(); id++ {
		if got := g.Define(clone(f.Value(id))); got != id {
			t.Fatalf("%s: v%d cloned as v%d", mod.FuncName(f), id, got)
		}
	}
	for _, b := range f.Blocks {
		nb := blocks[b]
		nb.IDom = blocks[b.IDom]
		for _, in := range b.Phis {
			nb.Phis = append(nb.Phis, clone(in))
		}
		for _, in := range b.Code {
			nb.Code = append(nb.Code, clone(in))
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			np := core.Pred{From: blocks[p.From]}
			if p.Site != nil {
				np.Site = clone(p.Site)
			}
			blocks[b].Preds = append(blocks[b].Preds, np)
		}
	}
	var node func(n *core.CSTNode) *core.CSTNode
	node = func(n *core.CSTNode) *core.CSTNode {
		if n == nil {
			return nil
		}
		c := &core.CSTNode{Kind: n.Kind, Cond: n.Cond, Val: n.Val,
			Block: blocks[n.Block], Handler: blocks[n.Handler], At: blocks[n.At]}
		for _, k := range n.Kids {
			c.Kids = append(c.Kids, node(k))
		}
		return c
	}
	g.Body = node(f.Body)
	g.Entry = blocks[f.Entry]
	g.Finish()
	return g
}

// appendEverywhere appends a sentinel to every vector a slab-carved
// function is made of and throws the result away. That is harmless exactly
// when no vector has spare capacity reaching into memory something else
// owns.
func appendEverywhere(f *core.Func) {
	_ = append(f.Blocks, &core.Block{})
	for _, b := range f.Blocks {
		_ = append(b.Phis, &core.Instr{})
		_ = append(b.Code, &core.Instr{})
		_ = append(b.Preds, core.Pred{From: b})
		_ = append(b.Children, &core.Block{})
		b.Instrs(func(in *core.Instr) { _ = append(in.Args, -1) })
	}
	var node func(n *core.CSTNode)
	node = func(n *core.CSTNode) {
		if n != nil {
			_ = append(n.Kids, &core.CSTNode{})
			for _, k := range n.Kids {
				node(k)
			}
		}
	}
	node(f.Body)
}

// TestDecodedSlabsDoNotAlias: a decoded module's instructions, operand
// vectors, code vectors and CST nodes are carved from shared chunks — and
// so are those of the module ssabuild built — and optimizer passes append
// to Args, splice Code, filter Code and Phis in place (cse, constprop and
// dce compact a block's vector over itself) and delete instructions.
// Every carved vector is cut to its exact capacity, so growing one
// reallocates it and compacting one stays inside it: appending to all of
// them leaves the module as it was, and the full O2 pipeline over the
// decoded module and over the built one, verified after every pass,
// produces the same bytes as over a copy made of individually allocated
// pieces.
func TestDecodedSlabsDoNotAlias(t *testing.T) {
	for _, u := range corpus.Units() {
		built, err := driver.CompileTSASource(u.Files)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		data := wire.EncodeModuleV2(built, nil)
		decoded, err := wire.DecodeVerified(data)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		// The copy gets tables of its own from a second decode, so the
		// two pipelines share nothing at all.
		copied, err := wire.DecodeVerified(data)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for i, f := range copied.Funcs {
			copied.Funcs[i] = unslab(t, copied, f)
		}
		if !bytes.Equal(wire.EncodeModuleV2(copied, nil), data) {
			t.Fatalf("%s: the unslabbed copy is not the module that was decoded", u.Name)
		}
		if _, err := OptimizeModulePerPass(copied); err != nil {
			t.Fatalf("%s: copied module: %v", u.Name, err)
		}
		want := wire.EncodeModuleV2(copied, nil)
		for _, carved := range []struct {
			how string
			mod *core.Module
		}{{"decoded", decoded}, {"built", built}} {
			before := carved.mod.Dump()
			for _, f := range carved.mod.Funcs {
				appendEverywhere(f)
			}
			if carved.mod.Dump() != before {
				t.Fatalf("%s: appending to the %s module's vectors wrote into their neighbours", u.Name, carved.how)
			}
			if _, err := OptimizeModulePerPass(carved.mod); err != nil {
				t.Fatalf("%s: %s module: %v", u.Name, carved.how, err)
			}
			if !bytes.Equal(wire.EncodeModuleV2(carved.mod, nil), want) {
				t.Errorf("%s: O2 over the %s module and over the unslabbed copy disagree", u.Name, carved.how)
			}
		}
	}
}
