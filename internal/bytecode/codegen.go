package bytecode

import (
	"fmt"

	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/sema"
)

// Compile translates a checked TJ program into the baseline class-file
// format, one ClassFile per user class, in the style of javac: stack
// traffic per use, fused array/field opcodes with their implicit checks,
// StringBuilder-based concatenation, and inlined finally blocks.
func Compile(prog *sema.Program) (*Program, error) {
	p := &Program{}
	for _, c := range prog.UserClasses() {
		cf, err := compileClass(prog, c)
		if err != nil {
			return nil, err
		}
		p.Classes = append(p.Classes, cf)
		for _, m := range c.Methods {
			if p.Main == "" && isEntry(prog, m) {
				p.Main, p.MainDesc = c.Name, methodDescOf(m)
			}
		}
	}
	return p, nil
}

// isEntry reports whether m can be a program's entry, by ssabuild's rule:
// static main() or main(String[]).
func isEntry(prog *sema.Program, m *sema.MethodSym) bool {
	if m.Name != "main" || !m.Static || len(m.Params) > 1 {
		return false
	}
	if len(m.Params) == 0 {
		return true
	}
	p := m.Params[0]
	return p.Kind == sema.KindArray && p.Elem == prog.String
}

// descOf renders the Java descriptor of a type.
func descOf(t *sema.Type) string {
	switch t.Kind {
	case sema.KindInt:
		return "I"
	case sema.KindLong:
		return "J"
	case sema.KindDouble:
		return "D"
	case sema.KindBoolean:
		return "Z"
	case sema.KindChar:
		return "C"
	case sema.KindVoid:
		return "V"
	case sema.KindNull:
		return "LObject;"
	case sema.KindClass:
		return "L" + t.Class.Name + ";"
	case sema.KindArray:
		return "[" + descOf(t.Elem)
	}
	panic("bytecode: bad type")
}

func methodDescOf(m *sema.MethodSym) string {
	params := make([]string, len(m.Params))
	for i, p := range m.Params {
		params[i] = descOf(p)
	}
	res := "V"
	if m.Return != nil && !m.IsCtor {
		res = descOf(m.Return)
	}
	return MethodDesc(params, res)
}

func compileClass(prog *sema.Program, c *sema.Class) (*ClassFile, error) {
	cf := &ClassFile{Name: c.Name, Super: c.Super.Name, CP: NewConstPool()}
	cf.CP.Class(c.Name)
	cf.CP.Class(c.Super.Name)
	for _, f := range c.Fields {
		cf.Fields = append(cf.Fields, FieldInfo{Name: f.Name, Desc: descOf(f.Type), Static: f.Static})
	}

	// Static initializer.
	var clinitFields []*sema.FieldSym
	for _, f := range c.Fields {
		if f.Static && f.Init != nil {
			clinitFields = append(clinitFields, f)
		}
	}
	if len(clinitFields) > 0 {
		g := newGen(prog, cf, nil)
		for _, f := range clinitFields {
			g.genExprConv(f.Init, f.Type)
			g.emit(PUTSTATIC, cf.CP.FieldRef(c.Name, f.Name, descOf(f.Type)))
		}
		g.emit0(RETURN)
		cf.Methods = append(cf.Methods, &Method{
			Name: "<clinit>", Desc: "()V", Static: true,
			Code: g.code, MaxLocals: g.maxLocals, ExcTable: g.excTable,
		})
	}

	for _, m := range c.Ctors {
		mm, err := compileMethod(prog, cf, c, m)
		if err != nil {
			return nil, err
		}
		cf.Methods = append(cf.Methods, mm)
	}
	for _, m := range c.Methods {
		mm, err := compileMethod(prog, cf, c, m)
		if err != nil {
			return nil, err
		}
		cf.Methods = append(cf.Methods, mm)
	}
	return cf, nil
}

func compileMethod(prog *sema.Program, cf *ClassFile, c *sema.Class, m *sema.MethodSym) (*Method, error) {
	g := newGen(prog, cf, m)
	name := m.Name
	desc := methodDescOf(m)
	if m.IsCtor {
		name = "<init>"
	}
	if !m.Static {
		g.allocSlot(1) // this
	}
	info := prog.MethodInfo[m]
	if info != nil {
		for i, l := range info.Params {
			g.slots[l] = g.allocSlot(slotWidth(m.Params[i]))
		}
	}

	var body []ast.Stmt
	if !m.Synthetic {
		body = m.Decl.Body.Stmts
	}
	if m.IsCtor {
		var explicit *ast.SuperCtorCall
		if len(body) > 0 {
			if es, ok := body[0].(*ast.ExprStmt); ok {
				if sc, ok := es.X.(*ast.SuperCtorCall); ok {
					explicit = sc
					body = body[1:]
				}
			}
		}
		g.genCtorPreamble(c, m, explicit)
	}
	for _, s := range body {
		g.genStmt(s)
	}
	if !g.terminated {
		if m.IsCtor || m.Return == nil || m.Return == prog.Void {
			g.emit0(RETURN)
		} else {
			// Fall-off return of the zero value (TJ has no
			// reachability analysis; see DESIGN.md).
			g.genZero(m.Return)
			g.genReturnOp(m.Return)
		}
	}
	return &Method{
		Name: name, Desc: desc, Static: m.Static,
		Code: g.code, MaxLocals: g.maxLocals, ExcTable: g.excTable,
	}, nil
}

func slotWidth(t *sema.Type) int {
	if t.Kind == sema.KindLong || t.Kind == sema.KindDouble {
		return 2
	}
	return 1
}

// gen is the per-method code generator.
type gen struct {
	prog *sema.Program
	cf   *ClassFile
	m    *sema.MethodSym

	code      []Instr
	slots     map[*sema.Local]int32
	nextSlot  int
	maxLocals int
	excTable  []ExcEntry

	loops      []*loopGen
	tries      []*tryGen
	inFinally  int
	terminated bool
}

type loopGen struct {
	contPends   []int // branch indexes to patch with the continue target
	breakPends  []int
	postAST     []ast.Stmt
	triesBase   int
	contKnown   bool  // while/for: the continue target is the loop head
	contAddress int32 // valid when contKnown
}

type tryGen struct {
	finallyAST *ast.BlockStmt
}

func newGen(prog *sema.Program, cf *ClassFile, m *sema.MethodSym) *gen {
	return &gen{
		prog:  prog,
		cf:    cf,
		m:     m,
		slots: make(map[*sema.Local]int32),
	}
}

func (g *gen) allocSlot(w int) int32 {
	s := g.nextSlot
	g.nextSlot += w
	if g.nextSlot > g.maxLocals {
		g.maxLocals = g.nextSlot
	}
	return int32(s)
}

func (g *gen) pc() int32 { return int32(len(g.code)) }

func (g *gen) emit(op Opcode, a int32) int {
	g.code = append(g.code, Instr{Op: op, A: a})
	g.terminated = false
	return len(g.code) - 1
}

func (g *gen) emit0(op Opcode) int { return g.emit(op, 0) }

func (g *gen) emit2(op Opcode, a, b int32) int {
	g.code = append(g.code, Instr{Op: op, A: a, B: b})
	g.terminated = false
	return len(g.code) - 1
}

// branch emits a branch with an unknown target, returning the index to
// patch.
func (g *gen) branch(op Opcode) int { return g.emit(op, -1) }

func (g *gen) patch(idx int) { g.code[idx].A = g.pc() }

func (g *gen) patchAll(idxs []int) {
	for _, i := range idxs {
		g.patch(i)
	}
}

func (g *gen) genCtorPreamble(c *sema.Class, m *sema.MethodSym, explicit *ast.SuperCtorCall) {
	g.emit(ALOAD, 0)
	if explicit != nil {
		ctor := explicit.Ctor.(*sema.MethodSym)
		for i, a := range explicit.Args {
			g.genExprConv(a, ctor.Params[i])
		}
		g.emit(INVOKESPECIAL, g.cf.CP.MethodRef(ctor.Owner.Name, "<init>", methodDescOf(ctor)))
	} else {
		ctor := g.prog.ImplicitSuper[m]
		owner := c.Super.Name
		if ctor != nil {
			owner = ctor.Owner.Name
		}
		g.emit(INVOKESPECIAL, g.cf.CP.MethodRef(owner, "<init>", "()V"))
	}
	for _, f := range c.Fields {
		if f.Static || f.Init == nil {
			continue
		}
		g.emit(ALOAD, 0)
		g.genExprConv(f.Init, f.Type)
		g.emit(PUTFIELD, g.cf.CP.FieldRef(f.Owner.Name, f.Name, descOf(f.Type)))
	}
}

func (g *gen) genZero(t *sema.Type) {
	switch t.Kind {
	case sema.KindInt, sema.KindBoolean, sema.KindChar:
		g.emit(ICONST, 0)
	case sema.KindLong:
		g.emit(LCONST, g.cf.CP.Long(0))
	case sema.KindDouble:
		g.emit(DCONST, g.cf.CP.Double(0))
	default:
		g.emit0(ACONSTNULL)
	}
}

func (g *gen) genReturnOp(t *sema.Type) {
	switch t.Kind {
	case sema.KindInt, sema.KindBoolean, sema.KindChar:
		g.emit0(IRETURN)
	case sema.KindLong:
		g.emit0(LRETURN)
	case sema.KindDouble:
		g.emit0(DRETURN)
	case sema.KindVoid:
		g.emit0(RETURN)
	default:
		g.emit0(ARETURN)
	}
	g.terminated = true
}

func popOf(t *sema.Type) Opcode {
	if slotWidth(t) == 2 {
		return POP2
	}
	return POP
}

// ---------------------------------------------------------------------
// Statements

func (g *gen) genStmt(s ast.Stmt) {
	if g.terminated {
		return // unreachable code is dropped, as javac requires
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			g.genStmt(st)
		}
	case *ast.EmptyStmt:
	case *ast.VarDeclStmt:
		l := g.prog.DeclLocal[s]
		g.slots[l] = g.allocSlot(slotWidth(l.Type))
		if s.Init != nil {
			g.genExprConv(s.Init, l.Type)
		} else {
			g.genZero(l.Type)
		}
		g.storeLocal(l)
	case *ast.ExprStmt:
		g.genExprStmt(s.X)
	case *ast.IfStmt:
		elseBr := g.genCondBranches(s.Cond, false)
		g.genStmt(s.Then)
		if s.Else == nil {
			g.patchAll(elseBr)
			g.terminated = false
			return
		}
		thenTerm := g.terminated
		var skip int
		if !thenTerm {
			skip = g.branch(GOTO)
		}
		g.patchAll(elseBr)
		g.terminated = false
		g.genStmt(s.Else)
		elseTerm := g.terminated
		if !thenTerm {
			g.patch(skip)
			g.terminated = false
		} else {
			g.terminated = thenTerm && elseTerm
		}
	case *ast.WhileStmt:
		g.genLoop(s.Cond, func() { g.genStmt(s.Body) }, nil)
	case *ast.ForStmt:
		if s.Init != nil {
			g.genStmt(s.Init)
		}
		cond := s.Cond
		var post []ast.Stmt
		if s.Post != nil {
			post = []ast.Stmt{s.Post}
		}
		g.genLoop(cond, func() { g.genStmt(s.Body) }, post)
	case *ast.DoWhileStmt:
		g.genDoWhile(s)
	case *ast.ReturnStmt:
		if s.X != nil {
			g.genExprConv(s.X, g.m.Return)
		}
		g.inlineFinallies(0)
		if s.X != nil {
			g.genReturnOp(g.m.Return)
		} else {
			g.emit0(RETURN)
			g.terminated = true
		}
	case *ast.BreakStmt:
		lg := g.loops[len(g.loops)-1]
		g.inlineFinallies(lg.triesBase)
		lg.breakPends = append(lg.breakPends, g.branch(GOTO))
		g.terminated = true
	case *ast.ContinueStmt:
		lg := g.loops[len(g.loops)-1]
		g.inlineFinallies(lg.triesBase)
		for _, st := range lg.postAST {
			g.genStmt(st)
		}
		if lg.contKnown {
			g.emit(GOTO, lg.contAddress)
		} else {
			lg.contPends = append(lg.contPends, g.branch(GOTO))
		}
		g.terminated = true
	case *ast.ThrowStmt:
		g.genExpr(s.X)
		g.emit0(ATHROW)
		g.terminated = true
	case *ast.TryStmt:
		g.genTry(s)
	default:
		panic(fmt.Sprintf("bytecode: unhandled statement %T", s))
	}
}

func (g *gen) inlineFinallies(base int) {
	if g.inFinally > 0 {
		return
	}
	for i := len(g.tries) - 1; i >= base; i-- {
		t := g.tries[i]
		if t.finallyAST == nil {
			continue
		}
		g.inFinally++
		for _, st := range t.finallyAST.Stmts {
			g.genStmt(st)
		}
		g.inFinally--
	}
}

func (g *gen) genLoop(cond ast.Expr, body func(), post []ast.Stmt) {
	lg := &loopGen{postAST: post, triesBase: len(g.tries), contKnown: true}
	lg.contAddress = g.pc()
	var exitBr []int
	if cond != nil {
		exitBr = g.genCondBranches(cond, false)
	}
	g.loops = append(g.loops, lg)
	body()
	if !g.terminated {
		for _, st := range post {
			g.genStmt(st)
		}
		g.emit(GOTO, lg.contAddress)
	}
	g.loops = g.loops[:len(g.loops)-1]
	g.patchAll(exitBr)
	g.patchAll(lg.breakPends)
	g.terminated = false
}

func (g *gen) genDoWhile(s *ast.DoWhileStmt) {
	lg := &loopGen{triesBase: len(g.tries)}
	top := g.pc()
	g.loops = append(g.loops, lg)
	g.genStmt(s.Body)
	g.loops = g.loops[:len(g.loops)-1]
	// The condition is the continue target.
	g.patchAll(lg.contPends)
	g.terminated = false
	backBr := g.genCondBranches(s.Cond, true)
	for _, i := range backBr {
		g.code[i].A = top
	}
	g.patchAll(lg.breakPends)
	g.terminated = false
}

func (g *gen) genTry(s *ast.TryStmt) {
	// The statement stays on the try stack through its catch bodies: a
	// return, break or continue inside one still owes the finally block.
	g.tries = append(g.tries, &tryGen{finallyAST: s.Finally})
	defer func() { g.tries = g.tries[:len(g.tries)-1] }()
	start := g.pc()
	for _, st := range s.Body.Stmts {
		g.genStmt(st)
	}
	// The protected range ends with the try block: the finally copy of
	// the normal path must not be covered by this statement's own
	// handlers, or an exception inside it would run it a second time.
	end := g.pc()
	bodyTerm := g.terminated
	if !bodyTerm && s.Finally != nil {
		g.inFinally++
		for _, st := range s.Finally.Stmts {
			g.genStmt(st)
		}
		g.inFinally--
		bodyTerm = g.terminated
	}
	if end == start {
		// Empty protected region: nothing can throw.
		g.terminated = bodyTerm
		return
	}

	var exits []int
	if !bodyTerm {
		exits = append(exits, g.branch(GOTO))
	}

	for _, cc := range s.Catches {
		handler := g.pc()
		l := g.prog.CatchLocal[cc]
		g.slots[l] = g.allocSlot(1)
		g.terminated = false
		g.emit(ASTORE, g.slots[l])
		g.excTable = append(g.excTable, ExcEntry{
			Start: start, End: end, Handler: handler,
			CatchType: g.cf.CP.Class(l.Type.Class.Name),
		})
		for _, st := range cc.Body.Stmts {
			g.genStmt(st)
		}
		if !g.terminated && s.Finally != nil {
			g.inFinally++
			for _, st := range s.Finally.Stmts {
				g.genStmt(st)
			}
			g.inFinally--
		}
		if !g.terminated {
			exits = append(exits, g.branch(GOTO))
		}
	}

	if s.Finally != nil {
		// Catch-any handler: run the finally code and rethrow.
		handler := g.pc()
		g.terminated = false
		tmp := g.allocSlot(1)
		g.emit(ASTORE, tmp)
		g.excTable = append(g.excTable, ExcEntry{Start: start, End: end, Handler: handler})
		g.inFinally++
		for _, st := range s.Finally.Stmts {
			g.genStmt(st)
		}
		g.inFinally--
		if !g.terminated {
			g.emit(ALOAD, tmp)
			g.emit0(ATHROW)
		}
	}

	if len(exits) == 0 {
		g.terminated = true
		return
	}
	g.patchAll(exits)
	g.terminated = false
}
