package core

import (
	"fmt"
	"strings"
)

// Dump renders the whole module in the textual style of the paper's
// Figure 4 ("type-separated reference-safe SSA"), with (l-r) references.
func (m *Module) Dump() string {
	var sb strings.Builder
	for _, f := range m.Funcs {
		sb.WriteString(m.DumpFunc(f))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DumpFunc renders one function: the CST structure with each basic block
// printed as plane-indexed instructions and (l-r) operand references.
func (m *Module) DumpFunc(f *Func) string {
	tt := m.Types
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", m.FuncName(f))
	for i := range m.NumParams(f) {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tt.Describe(m.Param(f, i)))
	}
	fmt.Fprintf(&sb, ") %s {\n", tt.Describe(m.Result(f)))

	planeIdx := f.PlaneIndex()
	ref := func(from *Block, v ValueID) string {
		if v == NoValue {
			return "(-)"
		}
		def := f.Value(v)
		if def == nil {
			return fmt.Sprintf("(?v%d)", v)
		}
		r := f.EncodeRef(from, v, planeIdx)
		return fmt.Sprintf("(%d-%d %s)", r.L, r.R, tt.Describe(def.Type))
	}
	// Phi operand references use l=0 for the edge's source block.
	phiRef := func(e Pred, v ValueID) string {
		def := f.Value(v)
		if def == nil {
			return fmt.Sprintf("(?v%d)", v)
		}
		r := f.EncodeRef(e.From, v, planeIdx)
		return fmt.Sprintf("(%d-%d)", r.L, r.R)
	}

	printInstr := func(ind string, b *Block, in *Instr) {
		var out strings.Builder
		if in.HasResult() {
			fmt.Fprintf(&out, "%s:%d <- ", tt.Describe(in.Type), planeIdx[in.ID])
		}
		out.WriteString(in.Op.String())
		switch in.Op {
		case OpParam:
			fmt.Fprintf(&out, " #%d", in.Aux)
		case OpConst:
			fmt.Fprintf(&out, " %s %s", tt.Describe(in.Type), in.Const)
		case OpPrim, OpXPrim:
			fmt.Fprintf(&out, " %s", in.Prim)
		case OpGetField, OpSetField:
			fr := m.Fields[in.Field]
			fmt.Fprintf(&out, " %s.%s", tt.Describe(fr.Owner), fr.Name)
		case OpXCall, OpXDispatch:
			fmt.Fprintf(&out, " %s", m.Methods[in.Method].Sig(tt))
		case OpNullCheck, OpInstanceOf, OpUpcast, OpDowncast,
			OpNew, OpNewArray, OpGetElt, OpSetElt, OpIndexCheck, OpArrayLen:
			if in.TypeArg != NoType {
				fmt.Fprintf(&out, " %s", tt.Describe(in.TypeArg))
			}
		}
		if in.Op == OpPhi {
			for k, a := range in.Args {
				if k < len(b.Preds) {
					fmt.Fprintf(&out, " %s", phiRef(b.Preds[k], a))
				} else {
					fmt.Fprintf(&out, " (?edge%d)", k)
				}
			}
		} else {
			for _, a := range in.Args {
				fmt.Fprintf(&out, " %s", ref(b, a))
			}
		}
		fmt.Fprintf(&sb, "%s%s\n", ind, out.String())
	}

	printBlock := func(ind string, b *Block) {
		fmt.Fprintf(&sb, "%sblock b%d (%d preds):\n", ind, b.Index, len(b.Preds))
		for _, in := range b.Phis {
			printInstr(ind+"  ", b, in)
		}
		for _, in := range b.Code {
			printInstr(ind+"  ", b, in)
		}
	}

	var walk func(ind string, n *CSTNode)
	walk = func(ind string, n *CSTNode) {
		if n == nil {
			return
		}
		switch n.Kind {
		case CSeq:
			for _, k := range n.Kids {
				walk(ind, k)
			}
		case CBlock:
			printBlock(ind, n.Block)
		case CIf:
			fmt.Fprintf(&sb, "%sif %s {\n", ind, ref(n.At, n.Cond))
			walk(ind+"  ", n.Kids[0])
			if len(n.Kids) > 1 && n.Kids[1] != nil {
				fmt.Fprintf(&sb, "%s} else {\n", ind)
				walk(ind+"  ", n.Kids[1])
			}
			fmt.Fprintf(&sb, "%s}\n", ind)
		case CWhile:
			fmt.Fprintf(&sb, "%swhile {\n", ind)
			walk(ind+"  ", n.Kids[0])
			fmt.Fprintf(&sb, "%s} cond %s do {\n", ind, ref(n.At, n.Cond))
			walk(ind+"  ", n.Kids[1])
			fmt.Fprintf(&sb, "%s}\n", ind)
		case CDoWhile:
			fmt.Fprintf(&sb, "%sdo {\n", ind)
			walk(ind+"  ", n.Kids[0])
			fmt.Fprintf(&sb, "%s} latch {\n", ind)
			walk(ind+"  ", n.Kids[1])
			fmt.Fprintf(&sb, "%s} while %s\n", ind, ref(n.At, n.Cond))
		case CReturn:
			if n.Val == NoValue {
				fmt.Fprintf(&sb, "%sreturn\n", ind)
			} else {
				fmt.Fprintf(&sb, "%sreturn %s\n", ind, ref(n.At, n.Val))
			}
		case CBreak:
			fmt.Fprintf(&sb, "%sbreak\n", ind)
		case CContinue:
			fmt.Fprintf(&sb, "%scontinue\n", ind)
		case CThrow:
			fmt.Fprintf(&sb, "%sthrow %s\n", ind, ref(n.At, n.Val))
		case CTry:
			fmt.Fprintf(&sb, "%stry {\n", ind)
			walk(ind+"  ", n.Kids[0])
			fmt.Fprintf(&sb, "%s} handler {\n", ind)
			walk(ind+"  ", n.Kids[1])
			fmt.Fprintf(&sb, "%s}\n", ind)
		}
	}
	walk("  ", f.Body)
	sb.WriteString("}\n")
	return sb.String()
}
