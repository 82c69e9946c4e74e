package ssabuild

import (
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/sema"
)

// assignedLocals collects the locals assigned anywhere in a statement or
// expression subtree. The builder uses it to limit loop-header phi
// placement to variables the loop can actually change — the paper's
// refinement of the Brandis–Mössenböck scheme ("we improved the handling
// ... to avoid inserting phi nodes"); the remaining superfluous phis are
// still removed by DCE.
func (fb *fnBuilder) assignedLocals(nodes ...ast.Node) localSet {
	out := localSet(fb.b.sets.Take(fb.nlocals))
	for _, n := range nodes {
		assignedWalk(out, n)
	}
	return out
}

func assignedWalk(out localSet, n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, s := range n.Stmts {
			assignedWalk(out, s)
		}
	case *ast.VarDeclStmt:
		assignedWalk(out, n.Init)
	case *ast.ExprStmt:
		assignedWalk(out, n.X)
	case *ast.IfStmt:
		assignedWalk(out, n.Cond)
		assignedWalk(out, n.Then)
		assignedWalk(out, n.Else)
	case *ast.WhileStmt:
		assignedWalk(out, n.Cond)
		assignedWalk(out, n.Body)
	case *ast.DoWhileStmt:
		assignedWalk(out, n.Body)
		assignedWalk(out, n.Cond)
	case *ast.ForStmt:
		assignedWalk(out, n.Init)
		assignedWalk(out, n.Cond)
		assignedWalk(out, n.Post)
		assignedWalk(out, n.Body)
	case *ast.ReturnStmt:
		assignedWalk(out, n.X)
	case *ast.ThrowStmt:
		assignedWalk(out, n.X)
	case *ast.TryStmt:
		assignedWalk(out, n.Body)
		for _, cc := range n.Catches {
			assignedWalk(out, cc.Body)
		}
		if n.Finally != nil {
			assignedWalk(out, n.Finally)
		}
	case *ast.BreakStmt, *ast.ContinueStmt, *ast.EmptyStmt:
	case *ast.Assign:
		if id, ok := n.LHS.(*ast.Ident); ok {
			if l, ok := id.Sym.(*sema.Local); ok {
				out.add(l)
			}
		}
		assignedWalk(out, n.LHS)
		assignedWalk(out, n.RHS)
	case *ast.IncDec:
		if id, ok := n.X.(*ast.Ident); ok {
			if l, ok := id.Sym.(*sema.Local); ok {
				out.add(l)
			}
		}
		assignedWalk(out, n.X)
	case *ast.Unary:
		assignedWalk(out, n.X)
	case *ast.Binary:
		assignedWalk(out, n.X)
		assignedWalk(out, n.Y)
	case *ast.FieldAccess:
		assignedWalk(out, n.X)
	case *ast.IndexExpr:
		assignedWalk(out, n.X)
		assignedWalk(out, n.Index)
	case *ast.CallExpr:
		assignedWalk(out, n.Recv)
		for _, a := range n.Args {
			assignedWalk(out, a)
		}
	case *ast.SuperCall:
		for _, a := range n.Args {
			assignedWalk(out, a)
		}
	case *ast.SuperCtorCall:
		for _, a := range n.Args {
			assignedWalk(out, a)
		}
	case *ast.NewObject:
		for _, a := range n.Args {
			assignedWalk(out, a)
		}
	case *ast.NewArray:
		for _, l := range n.Lens {
			assignedWalk(out, l)
		}
	case *ast.Cast:
		assignedWalk(out, n.X)
	case *ast.InstanceOf:
		assignedWalk(out, n.X)
	case *ast.Cond:
		assignedWalk(out, n.C)
		assignedWalk(out, n.Then)
		assignedWalk(out, n.Else)
	}
}
