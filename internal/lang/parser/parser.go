// Package parser implements a recursive-descent parser for TJ source
// files, producing the untyped AST consumed by sema.
package parser

import (
	"fmt"
	"strconv"

	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/scanner"
	"safetsa/internal/lang/token"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// bailout is used to abort parsing after too many errors.
type bailout struct{}

const maxErrors = 20

// maxDepth bounds how deep the tree ParseFile returns can be. No node of
// it hangs more than maxDepth levels (and a small constant) below its
// class, where a chain a loop builds — 1+1+1, a[0][0][0], a.b.c, int[][][]
// — counts a level per link, since that is the tree it makes. The walks
// behind the parser (sema, ssabuild, bytecode) recurse over this tree, so
// the one bound keeps their host stack as small as the parser's own: a
// source that nests deeper is a syntax error instead of a stack overflow
// (DESIGN.md §9).
const maxDepth = 1000

type parser struct {
	a    *Arena
	file string // the name every token position is reported in
	toks []token.Token
	pos  int
	errs []error

	// depth is how many levels down the tree the node now being parsed
	// hangs; high is the deepest that any node of the expression being
	// parsed hangs so far (parseExpr and parseBinary open one). Every child
	// is parsed between a nest and its unnest, and a node that becomes the
	// left child of one built after it takes all it holds a level down
	// with it (sink), so high never reads less than the tree is deep.
	depth, high int
}

// ParseFile parses a whole TJ compilation unit. On syntax errors it
// returns the partial AST together with the error list.
func ParseFile(file, src string) (*ast.File, []error) { return new(Arena).ParseFile(file, src) }

// ParseFile is the package-level ParseFile, carving the tree from a.
func (a *Arena) ParseFile(file, src string) (*ast.File, []error) {
	toks, errs := scanner.Scan(a.toks, file, src)
	p := &parser{a: a, file: file, toks: toks, errs: errs}
	f := &ast.File{Name: file}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
			}
		}()
		for p.tok().Kind != token.EOF {
			c := p.parseClass()
			a.classStack = append(a.classStack, c)
		}
	}()
	// A bailout leaves the nodes it cut short on the stacks, unreachable
	// from f: every node joins its parent once it is done.
	f.Classes = cut(&a.classVec, &a.classStack, 0)
	a.dropStacks()
	if a.all != nil { // a kept arena: its tokens must not pin src
		clear(toks)
		a.toks = toks[:0]
	}
	return f, p.errs
}

func (p *parser) tok() token.Token { return p.toks[p.pos] }

// posOf is where t stands in the file being parsed; here, where the
// current token does.
func (p *parser) posOf(t token.Token) token.Pos { return t.Pos(p.file) }

func (p *parser) here() token.Pos { return p.posOf(p.tok()) }

func (p *parser) at(k token.Kind) bool { return p.tok().Kind == k }

func (p *parser) peekKind(n int) token.Kind {
	i := p.pos + n
	if i >= len(p.toks) {
		return token.EOF
	}
	return p.toks[i].Kind
}

func (p *parser) next() token.Token {
	t := p.tok()
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...interface{}) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(p.errs) >= maxErrors {
		panic(bailout{})
	}
}

// nest steps a level down the tree, to where a child of the node being
// built hangs; unnest steps back up.
func (p *parser) nest() {
	p.depth++
	if p.depth > p.high {
		p.high = p.depth
		p.checkDepth(p.high)
	}
}

func (p *parser) unnest() { p.depth-- }

// sink is a link of a left-leaning chain: what the open expression holds
// so far becomes the left child of a node built after it.
func (p *parser) sink() {
	p.high++
	p.checkDepth(p.high)
}

// checkDepth ends the parse when a node would hang at level.
func (p *parser) checkDepth(level int) {
	if level > maxDepth {
		p.errs = append(p.errs, &Error{Pos: p.here(), Msg: fmt.Sprintf("nesting deeper than %d levels", maxDepth)})
		panic(bailout{})
	}
}

func (p *parser) expect(k token.Kind) token.Token {
	if !p.at(k) {
		p.errorf(p.here(), "expected %q, found %s", k.String(), p.tok())
		// Do not consume: let the caller's loop structure resynchronize.
		cur := p.tok()
		return token.Token{Kind: k, Line: cur.Line, Col: cur.Col}
	}
	return p.next()
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

// skipModifiers consumes access and final modifiers, returning whether
// static was among them.
func (p *parser) skipModifiers() (static bool, final bool) {
	for {
		switch p.tok().Kind {
		case token.PUBLIC, token.PRIVATE, token.PROTECTED:
			p.next()
		case token.STATIC:
			static = true
			p.next()
		case token.FINAL:
			final = true
			p.next()
		default:
			return static, final
		}
	}
}

func (p *parser) parseClass() *ast.ClassDecl {
	p.skipModifiers()
	start := p.expect(token.CLASS)
	name := p.expect(token.IDENT)
	c := p.a.classes.New(ast.ClassDecl{Name: name.Lit, P: p.posOf(start)})
	if p.accept(token.EXTENDS) {
		c.Super = p.expect(token.IDENT).Lit
	}
	p.expect(token.LBRACE)
	fields, methods := len(p.a.fieldStack), len(p.a.methodStack)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		p.parseMember(c)
	}
	c.Fields = cut(&p.a.fieldVec, &p.a.fieldStack, fields)
	c.Methods = cut(&p.a.methodVec, &p.a.methodStack, methods)
	p.expect(token.RBRACE)
	return c
}

// parseMember parses one field, method, or constructor declaration and
// appends it to c.
func (p *parser) parseMember(c *ast.ClassDecl) {
	static, final := p.skipModifiers()
	pos := p.here()

	// Constructor: IDENT matching the class name followed by '('.
	if p.at(token.IDENT) && p.tok().Lit == c.Name && p.peekKind(1) == token.LPAREN {
		name := p.next()
		m := p.a.methods.New(ast.MethodDecl{Name: name.Lit, IsCtor: true, P: pos})
		m.Params = p.parseParams()
		p.skipThrows()
		m.Body = p.parseBlock()
		p.a.methodStack = append(p.a.methodStack, m)
		return
	}

	typ := p.parseType()
	name := p.expect(token.IDENT)
	if p.at(token.LPAREN) {
		m := p.a.methods.New(ast.MethodDecl{Name: name.Lit, Return: typ, Static: static, P: pos})
		m.Params = p.parseParams()
		p.skipThrows()
		m.Body = p.parseBlock()
		p.a.methodStack = append(p.a.methodStack, m)
		return
	}

	// Field declaration, possibly with several comma-separated
	// declarators sharing the base type.
	dims := arrayDims(typ)
	for {
		declType := typ
		// Trailing [] on the declarator name (Java legacy syntax).
		for n := dims + 1; p.accept(token.LBRACK); n++ {
			p.expect(token.RBRACK)
			p.checkDepth(p.depth + n)
			declType = p.a.arrTypes.New(ast.ArrayTypeExpr{Elem: declType, P: pos})
		}
		f := p.a.fields.New(ast.FieldDecl{Name: name.Lit, Type: declType, Static: static, Final: final, P: pos})
		if p.accept(token.ASSIGN) {
			f.Init = p.parseExpr()
		}
		p.a.fieldStack = append(p.a.fieldStack, f)
		if !p.accept(token.COMMA) {
			break
		}
		name = p.expect(token.IDENT)
	}
	p.expect(token.SEMI)
}

func (p *parser) skipThrows() {
	if p.accept(token.THROWS) {
		p.expect(token.IDENT)
		for p.accept(token.COMMA) {
			p.expect(token.IDENT)
		}
	}
}

func (p *parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	mark := len(p.a.paramStack)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		if len(p.a.paramStack) > mark {
			p.expect(token.COMMA)
		}
		pos := p.here()
		typ := p.parseType()
		name := p.expect(token.IDENT)
		for p.accept(token.LBRACK) {
			p.expect(token.RBRACK)
			typ = p.a.arrTypes.New(ast.ArrayTypeExpr{Elem: typ, P: pos})
		}
		prm := p.a.params.New(ast.Param{Name: name.Lit, Type: typ, P: pos})
		p.a.paramStack = append(p.a.paramStack, prm)
	}
	p.expect(token.RPAREN)
	return cut(&p.a.paramVec, &p.a.paramStack, mark)
}

func isPrimTypeToken(k token.Kind) bool {
	switch k {
	case token.INT, token.LONG, token.DOUBLE, token.BOOLEAN, token.CHAR, token.VOID:
		return true
	}
	return false
}

func (p *parser) parseType() ast.TypeExpr {
	pos := p.here()
	var t ast.TypeExpr
	switch {
	case isPrimTypeToken(p.tok().Kind):
		t = p.a.prims.New(ast.PrimTypeExpr{Kind: p.next().Kind, P: pos})
	case p.at(token.IDENT):
		t = p.a.nameds.New(ast.NamedTypeExpr{Name: p.next().Lit, P: pos})
	default:
		p.errorf(pos, "expected type, found %s", p.tok())
		p.next()
		return p.a.prims.New(ast.PrimTypeExpr{Kind: token.INT, P: pos})
	}
	for n := 1; p.at(token.LBRACK) && p.peekKind(1) == token.RBRACK; n++ {
		p.next()
		p.next()
		p.checkDepth(p.depth + n)
		t = p.a.arrTypes.New(ast.ArrayTypeExpr{Elem: t, P: pos})
	}
	return t
}

// arrayDims is how many levels of array t has.
func arrayDims(t ast.TypeExpr) (n int) {
	for a, ok := t.(*ast.ArrayTypeExpr); ok; a, ok = a.Elem.(*ast.ArrayTypeExpr) {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	start := p.expect(token.LBRACE)
	b := p.a.blocks.New(ast.BlockStmt{P: p.posOf(start)})
	p.nest()
	defer p.unnest()
	mark := len(p.a.stmtStack)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		p.a.stmtStack = append(p.a.stmtStack, s)
		if p.pos == before {
			// No progress: discard a token to avoid an infinite loop
			// after a syntax error.
			p.errorf(p.here(), "unexpected %s", p.tok())
			p.next()
		}
	}
	b.Stmts = cut(&p.a.stmtVec, &p.a.stmtStack, mark)
	p.expect(token.RBRACE)
	return b
}

// startsLocalDecl reports whether the statement at the current position is
// a local variable declaration: a primitive type, or IDENT ([])* IDENT.
func (p *parser) startsLocalDecl() bool {
	if isPrimTypeToken(p.tok().Kind) && !p.at(token.VOID) {
		return true
	}
	if !p.at(token.IDENT) {
		return false
	}
	i := 1
	for p.peekKind(i) == token.LBRACK && p.peekKind(i+1) == token.RBRACK {
		i += 2
	}
	return p.peekKind(i) == token.IDENT
}

func (p *parser) parseStmt() ast.Stmt {
	if p.at(token.LBRACE) {
		return p.parseBlock()
	}
	p.nest()
	defer p.unnest()
	pos := p.here()
	switch p.tok().Kind {
	case token.SEMI:
		p.next()
		return p.a.empties.New(ast.EmptyStmt{P: pos})
	case token.IF:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		s := p.a.ifs.New(ast.IfStmt{Cond: cond, P: pos})
		s.Then = p.parseStmt()
		if p.accept(token.ELSE) {
			s.Else = p.parseStmt()
		}
		return s
	case token.WHILE:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		return p.a.whiles.New(ast.WhileStmt{Cond: cond, Body: p.parseStmt(), P: pos})
	case token.DO:
		p.next()
		body := p.parseStmt()
		p.expect(token.WHILE)
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return p.a.doWhiles.New(ast.DoWhileStmt{Body: body, Cond: cond, P: pos})
	case token.FOR:
		return p.parseFor()
	case token.RETURN:
		p.next()
		s := p.a.returns.New(ast.ReturnStmt{P: pos})
		if !p.at(token.SEMI) {
			s.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return s
	case token.BREAK:
		p.next()
		p.expect(token.SEMI)
		return p.a.breaks.New(ast.BreakStmt{P: pos})
	case token.CONTINUE:
		p.next()
		p.expect(token.SEMI)
		return p.a.continues.New(ast.ContinueStmt{P: pos})
	case token.THROW:
		p.next()
		x := p.parseExpr()
		p.expect(token.SEMI)
		return p.a.throws.New(ast.ThrowStmt{X: x, P: pos})
	case token.TRY:
		return p.parseTry()
	}
	if p.startsLocalDecl() {
		s := p.parseLocalDecl()
		p.expect(token.SEMI)
		return s
	}
	x := p.parseExpr()
	p.expect(token.SEMI)
	return p.a.exprStmts.New(ast.ExprStmt{X: x, P: pos})
}

// parseLocalDecl parses "Type name [= init] (, name [= init])*" without
// the trailing semicolon; multiple declarators are wrapped in a block.
func (p *parser) parseLocalDecl() ast.Stmt {
	pos := p.here()
	typ := p.parseType()
	dims := arrayDims(typ)
	mark := len(p.a.stmtStack)
	for {
		name := p.expect(token.IDENT)
		declType := typ
		for n := dims + 1; p.accept(token.LBRACK); n++ {
			p.expect(token.RBRACK)
			p.checkDepth(p.depth + n)
			declType = p.a.arrTypes.New(ast.ArrayTypeExpr{Elem: declType, P: pos})
		}
		d := p.a.varDecls.New(ast.VarDeclStmt{Name: name.Lit, Type: declType, P: p.posOf(name)})
		if p.accept(token.ASSIGN) {
			d.Init = p.parseExpr()
		}
		p.a.stmtStack = append(p.a.stmtStack, d)
		if !p.accept(token.COMMA) {
			break
		}
	}
	if len(p.a.stmtStack) == mark+1 {
		d := p.a.stmtStack[mark]
		p.a.stmtStack[mark] = nil
		p.a.stmtStack = p.a.stmtStack[:mark]
		return d
	}
	return p.a.blocks.New(ast.BlockStmt{Stmts: cut(&p.a.stmtVec, &p.a.stmtStack, mark), P: pos})
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.here()
	p.expect(token.FOR)
	p.expect(token.LPAREN)
	s := p.a.fors.New(ast.ForStmt{P: pos})
	if !p.at(token.SEMI) {
		if p.startsLocalDecl() {
			s.Init = p.parseLocalDecl()
		} else {
			s.Init = p.a.exprStmts.New(ast.ExprStmt{X: p.parseExpr(), P: p.here()})
		}
	}
	p.expect(token.SEMI)
	if !p.at(token.SEMI) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		s.Post = p.a.exprStmts.New(ast.ExprStmt{X: p.parseExpr(), P: p.here()})
	}
	p.expect(token.RPAREN)
	s.Body = p.parseStmt()
	return s
}

func (p *parser) parseTry() ast.Stmt {
	pos := p.posOf(p.expect(token.TRY))
	s := p.a.tries.New(ast.TryStmt{P: pos})
	s.Body = p.parseBlock()
	mark := len(p.a.catchStack)
	for p.at(token.CATCH) {
		cp := p.posOf(p.next())
		p.expect(token.LPAREN)
		typ := p.parseType()
		name := p.expect(token.IDENT)
		p.expect(token.RPAREN)
		cc := p.a.catches.New(ast.CatchClause{Type: typ, Name: name.Lit, Body: p.parseBlock(), P: cp})
		p.a.catchStack = append(p.a.catchStack, cc)
	}
	s.Catches = cut(&p.a.catchVec, &p.a.catchStack, mark)
	if p.accept(token.FINALLY) {
		s.Finally = p.parseBlock()
	}
	if len(s.Catches) == 0 && s.Finally == nil {
		p.errorf(pos, "try statement needs at least one catch or finally clause")
	}
	return s
}

// ---------------------------------------------------------------------
// Expressions

// parseExpr parses an expression that is the child of the node being
// built.
func (p *parser) parseExpr() ast.Expr {
	p.nest()
	outer := p.high
	p.high = p.depth
	x := p.parseAssign()
	p.high = max(p.high, outer)
	p.unnest()
	return x
}

func isLValue(x ast.Expr) bool {
	switch x.(type) {
	case *ast.Ident, *ast.FieldAccess, *ast.IndexExpr:
		return true
	}
	return false
}

func (p *parser) parseAssign() ast.Expr {
	lhs := p.parseTernary()
	if p.tok().Kind.IsAssignOp() {
		op := p.next()
		if !isLValue(lhs) {
			p.errorf(p.posOf(op), "left operand of %s is not assignable", op.Kind)
		}
		p.sink()
		rhs := p.parseExpr() // right associative
		return p.a.assigns.New(ast.Assign{Op: op.Kind, LHS: lhs, RHS: rhs, P: p.posOf(op)})
	}
	return lhs
}

func (p *parser) parseTernary() ast.Expr {
	c := p.parseBinary(1)
	if p.at(token.QUESTION) {
		pos := p.posOf(p.next())
		p.sink()
		then := p.parseExpr()
		p.expect(token.COLON)
		p.nest()
		els := p.parseTernary()
		p.unnest()
		return p.a.conds.New(ast.Cond{C: c, Then: then, Else: els, P: pos})
	}
	return c
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	// An operand of its own: the links below sink what this call has
	// parsed and nothing beside it.
	outer := p.high
	p.high = p.depth
	x := p.parseUnary()
	for {
		op := p.tok()
		prec := op.Kind.Precedence()
		if prec < minPrec {
			p.high = max(p.high, outer)
			return x
		}
		p.next()
		p.sink()
		if op.Kind == token.INSTANCEOF {
			typ := p.parseType()
			x = p.a.instanceOfs.New(ast.InstanceOf{X: x, Type: typ, P: p.posOf(op)})
			continue
		}
		p.nest()
		y := p.parseBinary(prec + 1)
		p.unnest()
		x = p.a.binaries.New(ast.Binary{Op: op.Kind, X: x, Y: y, P: p.posOf(op)})
	}
}

// startsCast reports whether the '(' at the current position opens a cast
// expression rather than a parenthesized subexpression.
func (p *parser) startsCast() bool {
	if !p.at(token.LPAREN) {
		return false
	}
	i := 1
	if isPrimTypeToken(p.peekKind(i)) && p.peekKind(i) != token.VOID {
		return true
	}
	if p.peekKind(i) != token.IDENT {
		return false
	}
	i++
	brackets := false
	for p.peekKind(i) == token.LBRACK && p.peekKind(i+1) == token.RBRACK {
		i += 2
		brackets = true
	}
	if p.peekKind(i) != token.RPAREN {
		return false
	}
	if brackets {
		return true
	}
	// "(Name) X" is a cast only when X can begin a unary expression that
	// is not also a binary-operator continuation.
	switch p.peekKind(i + 1) {
	case token.IDENT, token.INTLIT, token.LONGLIT, token.DOUBLELIT,
		token.CHARLIT, token.STRINGLIT, token.LPAREN, token.NOT,
		token.TILDE, token.THIS, token.NEW, token.NULL, token.TRUE,
		token.FALSE:
		return true
	}
	return false
}

func (p *parser) parseUnary() ast.Expr {
	pos := p.here()
	switch p.tok().Kind {
	case token.SUB, token.ADD, token.NOT, token.TILDE:
		op := p.next().Kind
		// JLS §3.10.1: the literals 2147483648 and 9223372036854775808L
		// are legal only as the immediate operand of unary minus, so the
		// minus must be folded into the literal before range checking.
		if op == token.SUB && p.at(token.INTLIT) {
			t := p.next()
			return p.parsePostfix(p.a.intLits.New(ast.IntLit{Value: p.intLitValue(t, true), P: pos}))
		}
		if op == token.SUB && p.at(token.LONGLIT) {
			t := p.next()
			return p.parsePostfix(p.a.longLits.New(ast.LongLit{Value: p.longLitValue(t, true), P: pos}))
		}
		return p.a.unaries.New(ast.Unary{Op: op, X: p.parseOperand(), P: pos})
	case token.INC, token.DEC:
		// Prefix inc/dec: treat as the equivalent compound assignment.
		op := p.next().Kind
		x := p.parseOperand()
		if !isLValue(x) {
			p.errorf(pos, "operand of %s is not assignable", op)
		}
		binOp := token.ADDASSIGN
		if op == token.DEC {
			binOp = token.SUBASSIGN
		}
		return p.a.assigns.New(ast.Assign{Op: binOp, LHS: x, RHS: p.a.intLits.New(ast.IntLit{Value: 1, P: pos}), P: pos})
	}
	if p.startsCast() {
		p.next() // (
		typ := p.parseType()
		p.expect(token.RPAREN)
		return p.a.casts.New(ast.Cast{Type: typ, X: p.parseOperand(), P: pos})
	}
	return p.parsePostfix(p.parsePrimary())
}

// parseOperand parses the operand of a prefix operator or a cast.
func (p *parser) parseOperand() ast.Expr {
	p.nest()
	x := p.parseUnary()
	p.unnest()
	return x
}

func (p *parser) parsePostfix(x ast.Expr) ast.Expr {
	for {
		pos := p.here()
		switch p.tok().Kind {
		case token.DOT:
			p.next()
			p.sink()
			name := p.expect(token.IDENT)
			if p.at(token.LPAREN) {
				call := p.a.calls.New(ast.CallExpr{Recv: x, Name: name.Lit, P: pos})
				call.Args = p.parseArgs()
				x = call
			} else {
				x = p.a.fieldAccs.New(ast.FieldAccess{X: x, Name: name.Lit, P: pos})
			}
		case token.LBRACK:
			p.next()
			p.sink()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			x = p.a.indexes.New(ast.IndexExpr{X: x, Index: idx, P: pos})
		case token.INC, token.DEC:
			op := p.next().Kind
			p.sink()
			if !isLValue(x) {
				p.errorf(pos, "operand of %s is not assignable", op)
			}
			x = p.a.incDecs.New(ast.IncDec{Op: op, X: x, P: pos})
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	mark := len(p.a.exprStack)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		if len(p.a.exprStack) > mark {
			p.expect(token.COMMA)
		}
		x := p.parseExpr()
		p.a.exprStack = append(p.a.exprStack, x)
	}
	p.expect(token.RPAREN)
	return cut(&p.a.exprVec, &p.a.exprStack, mark)
}

func (p *parser) parsePrimary() ast.Expr {
	pos := p.here()
	switch p.tok().Kind {
	case token.INTLIT:
		t := p.next()
		return p.a.intLits.New(ast.IntLit{Value: p.intLitValue(t, false), P: pos})
	case token.LONGLIT:
		t := p.next()
		return p.a.longLits.New(ast.LongLit{Value: p.longLitValue(t, false), P: pos})
	case token.DOUBLELIT:
		t := p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(pos, "invalid double literal %q: %v", t.Lit, err)
		}
		return p.a.doubleLits.New(ast.DoubleLit{Value: v, P: pos})
	case token.CHARLIT:
		t := p.next()
		r := ' '
		for _, c := range t.Lit {
			r = c
			break
		}
		return p.a.charLits.New(ast.CharLit{Value: r, P: pos})
	case token.STRINGLIT:
		t := p.next()
		return p.a.stringLits.New(ast.StringLit{Value: t.Lit, P: pos})
	case token.TRUE:
		p.next()
		return p.a.boolLits.New(ast.BoolLit{Value: true, P: pos})
	case token.FALSE:
		p.next()
		return p.a.boolLits.New(ast.BoolLit{Value: false, P: pos})
	case token.NULL:
		p.next()
		return p.a.nullLits.New(ast.NullLit{P: pos})
	case token.THIS:
		p.next()
		return p.a.thises.New(ast.ThisExpr{P: pos})
	case token.SUPER:
		p.next()
		if p.at(token.LPAREN) {
			c := p.a.superCtors.New(ast.SuperCtorCall{P: pos})
			c.Args = p.parseArgs()
			return c
		}
		p.expect(token.DOT)
		name := p.expect(token.IDENT)
		c := p.a.superCalls.New(ast.SuperCall{Name: name.Lit, P: pos})
		c.Args = p.parseArgs()
		return c
	case token.NEW:
		return p.parseNew()
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	case token.IDENT:
		t := p.next()
		if p.at(token.LPAREN) {
			call := p.a.calls.New(ast.CallExpr{Name: t.Lit, P: pos})
			call.Args = p.parseArgs()
			return call
		}
		return p.a.idents.New(ast.Ident{Name: t.Lit, P: pos})
	}
	p.errorf(pos, "expected expression, found %s", p.tok())
	p.next()
	return p.a.intLits.New(ast.IntLit{Value: 0, P: pos})
}

// parseIntDigits parses the digit string of an integer literal into its
// magnitude. Range policing per JLS §3.10.1 happens at the use sites
// below, where the literal's type and any folded unary minus are known.
func parseIntDigits(lit string) (u uint64, hex bool, err error) {
	if len(lit) > 2 && lit[0] == '0' && (lit[1] == 'x' || lit[1] == 'X') {
		u, err = strconv.ParseUint(lit[2:], 16, 64)
		return u, true, err
	}
	u, err = strconv.ParseUint(lit, 10, 64)
	return u, false, err
}

// intLitValue enforces the JLS §3.10.1 ranges for an int literal: a
// decimal literal may not exceed 2147483647 (2147483648 only under a
// folded unary minus), and a hex literal must fit in 32 bits — its value
// is the two's-complement reinterpretation, so 0xFFFFFFFF is -1.
func (p *parser) intLitValue(t token.Token, neg bool) int32 {
	u, hex, err := parseIntDigits(t.Lit)
	if err != nil {
		p.errorf(p.posOf(t), "invalid int literal %q: %v", t.Lit, err)
		return 0
	}
	if hex {
		if u > 0xFFFFFFFF {
			p.errorf(p.posOf(t), "hex int literal %s does not fit in 32 bits (JLS 3.10.1)", t.Lit)
			return 0
		}
		v := int32(uint32(u))
		if neg {
			v = -v
		}
		return v
	}
	max := uint64(2147483647)
	if neg {
		max = 2147483648
	}
	if u > max {
		if neg {
			p.errorf(p.posOf(t), "int literal -%s out of range (JLS 3.10.1: minimum is -2147483648)", t.Lit)
		} else {
			p.errorf(p.posOf(t), "int literal %s out of range (JLS 3.10.1: 2147483648 is legal only as the operand of unary minus)", t.Lit)
		}
		return 0
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return int32(v)
}

// longLitValue enforces the JLS §3.10.1 ranges for a long literal: a
// decimal literal may not exceed 9223372036854775807 (…808 only under a
// folded unary minus); a hex literal may use all 64 bits.
func (p *parser) longLitValue(t token.Token, neg bool) int64 {
	u, hex, err := parseIntDigits(t.Lit)
	if err != nil {
		p.errorf(p.posOf(t), "invalid long literal %q: %v", t.Lit, err)
		return 0
	}
	if hex {
		v := int64(u)
		if neg {
			v = -v
		}
		return v
	}
	max := uint64(1)<<63 - 1
	if neg {
		max = 1 << 63
	}
	if u > max {
		if neg {
			p.errorf(p.posOf(t), "long literal -%sL out of range (JLS 3.10.1: minimum is -9223372036854775808)", t.Lit)
		} else {
			p.errorf(p.posOf(t), "long literal %sL out of range (JLS 3.10.1: 9223372036854775808L is legal only as the operand of unary minus)", t.Lit)
		}
		return 0
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v
}

func (p *parser) parseNew() ast.Expr {
	pos := p.posOf(p.expect(token.NEW))
	var base ast.TypeExpr
	switch {
	case isPrimTypeToken(p.tok().Kind) && !p.at(token.VOID):
		base = p.a.prims.New(ast.PrimTypeExpr{Kind: p.next().Kind, P: pos})
	case p.at(token.IDENT):
		base = p.a.nameds.New(ast.NamedTypeExpr{Name: p.next().Lit, P: pos})
	default:
		p.errorf(pos, "expected type after new, found %s", p.tok())
		return p.a.nullLits.New(ast.NullLit{P: pos})
	}
	if p.at(token.LPAREN) {
		named, ok := base.(*ast.NamedTypeExpr)
		if !ok {
			p.errorf(pos, "cannot construct a primitive type")
			named = p.a.nameds.New(ast.NamedTypeExpr{Name: "Object", P: pos})
		}
		n := p.a.newObjects.New(ast.NewObject{TypeName: named.Name, P: pos})
		n.Args = p.parseArgs()
		return n
	}
	n := p.a.newArrays.New(ast.NewArray{Base: base, P: pos})
	mark := len(p.a.exprStack)
	for p.at(token.LBRACK) && p.peekKind(1) != token.RBRACK {
		p.next()
		x := p.parseExpr()
		p.a.exprStack = append(p.a.exprStack, x)
		p.expect(token.RBRACK)
	}
	n.Lens = cut(&p.a.exprVec, &p.a.exprStack, mark)
	if len(n.Lens) == 0 {
		p.errorf(pos, "array creation needs at least one sized dimension")
	}
	for p.at(token.LBRACK) && p.peekKind(1) == token.RBRACK {
		p.next()
		p.next()
		n.ExtraDims++
	}
	p.checkDepth(p.depth + len(n.Lens) + n.ExtraDims) // the levels of the array's type
	return n
}
