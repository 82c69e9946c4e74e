package wire

import (
	"safetsa/internal/core"
)

// linkShape reconstructs, from the bare Control Structure Tree, all the
// structural function state the builder produced on the producer side:
// normal predecessor edges (in the canonical per-construct order), the
// structural immediate dominators, each node's reference block (At), and
// the loop/handler block pointers. Exception edges are added afterwards,
// while instructions are decoded, in program order.
//
// This is the consumer half of the paper's claim that control flow and
// dominance are integrated in the transmitted structure: nothing about
// edges or dominators appears in the byte stream.
func linkShape(f *core.Func, d *decoder) error {
	s := shaper{f: f, preds: &d.preds, loops: d.loops[:0]}
	err := s.walk(f.Body)
	d.loops = s.loops
	if err != nil {
		return err
	}
	if f.Entry == nil {
		return malformedf("function %s has no entry block", d.m.FuncName(f))
	}
	return nil
}

type loopShape struct {
	header       *core.Block
	contToHeader bool
	contEdges    []core.Pred
	breakEdges   []core.Pred
}

type shaper struct {
	f     *core.Func
	preds *core.Slab[core.Pred] // where the decoder keeps the edge lists
	cur   *core.Block
	// pending carries the edges and structural dominator for the next
	// CBlock leaf.
	pending     []core.Pred
	pendingIDom *core.Block
	loops       []loopShape
}

// edges keeps the edge list "first, then rest" in the unit's memory.
func (s *shaper) edges(first *core.Block, rest ...core.Pred) []core.Pred {
	out := s.preds.Take(1 + len(rest))
	out[0] = core.Pred{From: first}
	copy(out[1:], rest)
	return out
}

// headerEdges is edges(first) with room for the back edge a loop header
// receives once its body has been walked.
func (s *shaper) headerEdges(first *core.Block) []core.Pred {
	out := s.preds.Take(2)[:1]
	out[0] = core.Pred{From: first}
	return out
}

// terminated reports whether the active path has ended.
type walkResult bool

const (
	flows      walkResult = false
	terminated walkResult = true
)

func (s *shaper) walk(n *core.CSTNode) error {
	_, err := s.walkNode(n)
	return err
}

func (s *shaper) walkNode(n *core.CSTNode) (walkResult, error) {
	if n == nil {
		return flows, nil
	}
	switch n.Kind {
	case core.CSeq:
		for i, k := range n.Kids {
			t, err := s.walkNode(k)
			if err != nil {
				return t, err
			}
			if t == terminated {
				if i != len(n.Kids)-1 {
					return t, malformedf("code after a terminator in a sequence")
				}
				return terminated, nil
			}
		}
		return flows, nil

	case core.CBlock:
		b := n.Block
		if s.f.Entry == nil {
			s.f.Entry = b
		} else {
			b.Preds = s.pending
			b.IDom = s.pendingIDom
			if b.IDom == nil {
				return flows, malformedf("non-entry block without a dominator context")
			}
		}
		s.pending, s.pendingIDom = nil, nil
		s.cur = b
		return flows, nil

	case core.CIf:
		c := s.cur
		if c == nil {
			return flows, malformedf("if without a current block")
		}
		n.At = c
		thenTerm, thenEnd, err := s.walkRegion(n.Kids[0], s.edges(c), c)
		if err != nil {
			return flows, err
		}
		elseTerm, elseEnd := flows, c
		if len(n.Kids) > 1 {
			elseTerm, elseEnd, err = s.walkRegion(n.Kids[1], s.edges(c), c)
			if err != nil {
				return flows, err
			}
		}
		return s.join(c, thenTerm, thenEnd, elseTerm, elseEnd), nil

	case core.CWhile:
		c := s.cur
		if c == nil {
			return flows, malformedf("while without a current block")
		}
		// Condition region: its first leaf is the loop header, whose
		// back and continue edges are appended below.
		condTerm, condEnd, err := s.walkRegion(n.Kids[0], s.headerEdges(c), c)
		if err != nil {
			return flows, err
		}
		if condTerm == terminated {
			return flows, malformedf("loop condition region terminates")
		}
		header := firstBlock(n.Kids[0])
		if header == nil {
			return flows, malformedf("loop without a header block")
		}
		n.Block = header
		n.At = condEnd

		s.loops = append(s.loops, loopShape{header: header, contToHeader: true})
		bodyTerm, bodyEnd, err := s.walkRegion(n.Kids[1], s.edges(condEnd), condEnd)
		if err != nil {
			return flows, err
		}
		ls := s.popLoop()
		if bodyTerm == flows {
			header.Preds = append(header.Preds, core.Pred{From: bodyEnd})
		}
		s.pending, s.pendingIDom = s.edges(condEnd, ls.breakEdges...), condEnd
		return flows, nil

	case core.CDoWhile:
		c := s.cur
		if c == nil {
			return flows, malformedf("do-while without a current block")
		}
		bodyEntry := firstBlock(n.Kids[0])
		if bodyEntry == nil {
			return flows, malformedf("do-while without a body block")
		}
		n.Block = bodyEntry
		s.loops = append(s.loops, loopShape{header: bodyEntry})
		bodyTerm, bodyEnd, err := s.walkRegion(n.Kids[0], s.headerEdges(c), c)
		if err != nil {
			return flows, err
		}
		ls := s.popLoop()

		latchPreds := ls.contEdges
		if bodyTerm == flows {
			latchPreds = append(latchPreds, core.Pred{From: bodyEnd})
		}
		if len(latchPreds) == 0 {
			return flows, malformedf("do-while latch is unreachable")
		}
		latchTerm, condEnd, err := s.walkRegion(n.Kids[1], latchPreds, bodyEntry)
		if err != nil {
			return flows, err
		}
		if latchTerm == terminated {
			return flows, malformedf("do-while latch region terminates")
		}
		n.At = condEnd
		bodyEntry.Preds = append(bodyEntry.Preds, core.Pred{From: condEnd})

		s.pending, s.pendingIDom = s.edges(condEnd, ls.breakEdges...), bodyEntry
		return flows, nil

	case core.CReturn, core.CThrow:
		if s.cur == nil {
			return flows, malformedf("%v without a current block", n.Kind)
		}
		n.At = s.cur
		s.cur = nil
		return terminated, nil

	case core.CBreak:
		if len(s.loops) == 0 || s.cur == nil {
			return flows, malformedf("break outside a loop")
		}
		ls := &s.loops[len(s.loops)-1]
		ls.breakEdges = append(ls.breakEdges, core.Pred{From: s.cur})
		s.cur = nil
		return terminated, nil

	case core.CContinue:
		if len(s.loops) == 0 || s.cur == nil {
			return flows, malformedf("continue outside a loop")
		}
		ls := &s.loops[len(s.loops)-1]
		if ls.contToHeader {
			ls.header.Preds = append(ls.header.Preds, core.Pred{From: s.cur})
		} else {
			ls.contEdges = append(ls.contEdges, core.Pred{From: s.cur})
		}
		s.cur = nil
		return terminated, nil

	case core.CTry:
		c := s.cur
		if c == nil {
			return flows, malformedf("try without a current block")
		}
		bodyTerm, bodyEnd, err := s.walkRegion(n.Kids[0], s.edges(c), c)
		if err != nil {
			return flows, err
		}
		handler := firstBlock(n.Kids[1])
		if handler == nil {
			return flows, malformedf("try without a handler block")
		}
		n.Handler = handler
		// Exception edges are appended during instruction decoding, and
		// are all the handler's: no construct may give it a normal edge.
		handlerTerm, handlerEnd, err := s.walkRegion(n.Kids[1], nil, c)
		if err != nil {
			return flows, err
		}
		if len(handler.Preds) > 0 {
			return flows, malformedf("try handler entered by a normal edge")
		}
		return s.join(c, bodyTerm, bodyEnd, handlerTerm, handlerEnd), nil
	}
	return flows, malformedf("unknown CST production %d", n.Kind)
}

// popLoop closes the innermost loop and returns what it collected.
func (s *shaper) popLoop() loopShape {
	ls := s.loops[len(s.loops)-1]
	s.loops = s.loops[:len(s.loops)-1]
	return ls
}

// join merges the two arms of an if or a try below their common
// dominator: the arms that flow are the pending edges of the next leaf,
// in order; with neither, the construct terminates the path.
func (s *shaper) join(idom *core.Block, aTerm walkResult, aEnd *core.Block, bTerm walkResult, bEnd *core.Block) walkResult {
	switch {
	case aTerm == flows && bTerm == flows:
		s.pending = s.edges(aEnd, core.Pred{From: bEnd})
	case aTerm == flows:
		s.pending = s.edges(aEnd)
	case bTerm == flows:
		s.pending = s.edges(bEnd)
	default:
		s.cur = nil
		return terminated
	}
	s.pendingIDom = idom
	return flows
}

// walkRegion enters a sub-region whose first leaf takes the given edges
// and dominator, then returns whether it terminated and its final block.
func (s *shaper) walkRegion(n *core.CSTNode, preds []core.Pred, idom *core.Block) (walkResult, *core.Block, error) {
	savedCur := s.cur
	savedPend, savedIDom := s.pending, s.pendingIDom
	s.pending, s.pendingIDom = preds, idom
	t, err := s.walkNode(n)
	end := s.cur
	s.cur = savedCur
	s.pending, s.pendingIDom = savedPend, savedIDom
	if err != nil {
		return t, end, err
	}
	if t == flows && end == nil {
		return t, end, malformedf("region flowed off without a block")
	}
	// An empty region (no leaf consumed the pending edges) behaves as a
	// direct fall-through; the builder never emits one, so reject.
	if t == flows && len(preds) > 0 && end != nil && end == savedCur {
		return t, end, malformedf("region with no blocks")
	}
	return t, end, nil
}

// firstBlock finds the first CBlock leaf of a subtree.
func firstBlock(n *core.CSTNode) *core.Block {
	if n == nil {
		return nil
	}
	if n.Kind == core.CBlock {
		return n.Block
	}
	for _, k := range n.Kids {
		if b := firstBlock(k); b != nil {
			return b
		}
	}
	return nil
}
