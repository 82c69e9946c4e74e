package parser

import (
	"unsafe"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/token"
)

// Arena is the memory the parser carves trees from (DESIGN.md §5, "who
// owns producer memory"): every node and every node vector of a parsed
// file comes from its slabs, a chunk per ~128 nodes of a kind, not one
// allocation per node; the token vector is its own and is reused from
// file to file. An arena parses one file at a time. The zero Arena never
// takes memory back (the package-level ParseFile uses one per call); an
// arena from NewArena keeps its chunks so that Rewind can take back every
// tree parsed since the last Rewind — after which the next file is carved
// from the same chunks, and no tree parsed before may be used.
type Arena struct {
	toks []token.Token

	prims    core.Slab[ast.PrimTypeExpr]
	nameds   core.Slab[ast.NamedTypeExpr]
	arrTypes core.Slab[ast.ArrayTypeExpr]

	classes core.Slab[ast.ClassDecl]
	fields  core.Slab[ast.FieldDecl]
	params  core.Slab[ast.Param]
	methods core.Slab[ast.MethodDecl]

	blocks    core.Slab[ast.BlockStmt]
	varDecls  core.Slab[ast.VarDeclStmt]
	exprStmts core.Slab[ast.ExprStmt]
	ifs       core.Slab[ast.IfStmt]
	whiles    core.Slab[ast.WhileStmt]
	doWhiles  core.Slab[ast.DoWhileStmt]
	fors      core.Slab[ast.ForStmt]
	returns   core.Slab[ast.ReturnStmt]
	breaks    core.Slab[ast.BreakStmt]
	continues core.Slab[ast.ContinueStmt]
	throws    core.Slab[ast.ThrowStmt]
	catches   core.Slab[ast.CatchClause]
	tries     core.Slab[ast.TryStmt]
	empties   core.Slab[ast.EmptyStmt]

	intLits     core.Slab[ast.IntLit]
	longLits    core.Slab[ast.LongLit]
	doubleLits  core.Slab[ast.DoubleLit]
	boolLits    core.Slab[ast.BoolLit]
	charLits    core.Slab[ast.CharLit]
	stringLits  core.Slab[ast.StringLit]
	nullLits    core.Slab[ast.NullLit]
	idents      core.Slab[ast.Ident]
	thises      core.Slab[ast.ThisExpr]
	superCtors  core.Slab[ast.SuperCtorCall]
	superCalls  core.Slab[ast.SuperCall]
	fieldAccs   core.Slab[ast.FieldAccess]
	indexes     core.Slab[ast.IndexExpr]
	calls       core.Slab[ast.CallExpr]
	newObjects  core.Slab[ast.NewObject]
	newArrays   core.Slab[ast.NewArray]
	unaries     core.Slab[ast.Unary]
	binaries    core.Slab[ast.Binary]
	assigns     core.Slab[ast.Assign]
	incDecs     core.Slab[ast.IncDec]
	casts       core.Slab[ast.Cast]
	instanceOfs core.Slab[ast.InstanceOf]
	conds       core.Slab[ast.Cond]

	// The node vectors, each cut from its stack below once its node is
	// done; a nested node's entries are pushed and cut above the entries
	// of the node it sits in.
	classVec  core.Slab[*ast.ClassDecl]
	fieldVec  core.Slab[*ast.FieldDecl]
	methodVec core.Slab[*ast.MethodDecl]
	paramVec  core.Slab[*ast.Param]
	stmtVec   core.Slab[ast.Stmt]
	exprVec   core.Slab[ast.Expr]
	catchVec  core.Slab[*ast.CatchClause]

	classStack  []*ast.ClassDecl
	fieldStack  []*ast.FieldDecl
	methodStack []*ast.MethodDecl
	paramStack  []*ast.Param
	stmtStack   []ast.Stmt
	exprStack   []ast.Expr
	catchStack  []*ast.CatchClause

	// all lists every slab above, for Rewind; nil in a zero Arena.
	all []slab
}

// slab is what the arena does to each of its slabs, whatever they hold.
type slab interface {
	Recycle()
	Rewind() int
}

// NewArena returns an empty arena that keeps its chunks for Rewind.
func NewArena() *Arena {
	a := new(Arena)
	a.all = []slab{
		&a.prims, &a.nameds, &a.arrTypes,
		&a.classes, &a.fields, &a.params, &a.methods,
		&a.blocks, &a.varDecls, &a.exprStmts, &a.ifs, &a.whiles, &a.doWhiles, &a.fors,
		&a.returns, &a.breaks, &a.continues, &a.throws, &a.catches, &a.tries, &a.empties,
		&a.intLits, &a.longLits, &a.doubleLits, &a.boolLits, &a.charLits, &a.stringLits,
		&a.nullLits, &a.idents, &a.thises, &a.superCtors, &a.superCalls, &a.fieldAccs,
		&a.indexes, &a.calls, &a.newObjects, &a.newArrays, &a.unaries, &a.binaries,
		&a.assigns, &a.incDecs, &a.casts, &a.instanceOfs, &a.conds,
		&a.classVec, &a.fieldVec, &a.methodVec, &a.paramVec, &a.stmtVec, &a.exprVec, &a.catchVec,
	}
	for _, s := range a.all {
		s.Recycle()
	}
	return a
}

// Rewind takes back every tree parsed since the last Rewind (poisoned
// while core.Poisoning, so that a reader that kept a pointer into a tree
// parsed before finds nil children and empty names) and reports the bytes
// the arena keeps: its chunks, its token vector and its stacks.
func (a *Arena) Rewind() int {
	n := cap(a.toks)*int(unsafe.Sizeof(token.Token{})) +
		8*(cap(a.classStack)+cap(a.fieldStack)+cap(a.methodStack)+cap(a.paramStack)+cap(a.catchStack)) +
		16*(cap(a.stmtStack)+cap(a.exprStack))
	for _, s := range a.all {
		n += s.Rewind()
	}
	return n
}

// dropStacks empties the stacks, which a bailout leaves holding the nodes
// it cut short.
func (a *Arena) dropStacks() {
	a.classStack = drop(a.classStack)
	a.fieldStack = drop(a.fieldStack)
	a.methodStack = drop(a.methodStack)
	a.paramStack = drop(a.paramStack)
	a.stmtStack = drop(a.stmtStack)
	a.exprStack = drop(a.exprStack)
	a.catchStack = drop(a.catchStack)
}

func drop[T any](stack []T) []T {
	clear(stack)
	return stack[:0]
}

// cut returns the entries pushed on *stack since mark, as a vector carved
// from vec, and pops them.
func cut[T any](vec *core.Slab[T], stack *[]T, mark int) []T {
	v := vec.Keep((*stack)[mark:])
	clear((*stack)[mark:])
	*stack = (*stack)[:mark]
	return v
}
