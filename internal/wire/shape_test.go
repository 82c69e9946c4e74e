package wire

import (
	"strings"
	"testing"

	"safetsa/internal/core"
)

// TestHandlerTakesNoNormalEdge: a try's handler is entered only by the
// exception edges of its body's sites, which the decoder appends after the
// tree's shape is linked. A handler region that opens with a construct,
// not with the handler's block, would give the handler a normal edge from
// the try's block before them; the shape refuses it, so a handler's edges
// are all its sites' and a site's edge is its ordinal among them.
func TestHandlerTakesNoNormalEdge(t *testing.T) {
	seq := func(ns ...*core.CSTNode) *core.CSTNode { return &core.CSTNode{Kind: core.CSeq, Kids: ns} }
	leaf := func(b *core.Block) *core.CSTNode { return &core.CSTNode{Kind: core.CBlock, Block: b} }
	for _, tc := range []struct {
		name    string
		handler func(h, x *core.Block) *core.CSTNode
		refused bool
	}{
		{"its block", func(h, x *core.Block) *core.CSTNode { return seq(leaf(h)) }, false},
		{"an if", func(h, x *core.Block) *core.CSTNode {
			return seq(&core.CSTNode{Kind: core.CIf, Kids: []*core.CSTNode{seq(leaf(h))}})
		}, true},
		{"a while", func(h, x *core.Block) *core.CSTNode {
			return seq(&core.CSTNode{Kind: core.CWhile, Kids: []*core.CSTNode{seq(leaf(h)), seq(leaf(x))}})
		}, true},
	} {
		entry, body, h, x := &core.Block{}, &core.Block{}, &core.Block{}, &core.Block{}
		f := core.NewFunc(0)
		f.Body = seq(leaf(entry), &core.CSTNode{Kind: core.CTry, Kids: []*core.CSTNode{seq(leaf(body)), tc.handler(h, x)}})
		d := &decoder{m: &core.Module{Types: core.NewTypeTable()}, Arena: new(Arena)}
		err := linkShape(f, d)
		if refused := err != nil && strings.Contains(err.Error(), "try handler entered by a normal edge"); refused != tc.refused {
			t.Errorf("a handler region that opens with %s: %v", tc.name, err)
		}
	}
}
