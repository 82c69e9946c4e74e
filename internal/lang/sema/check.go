package sema

import (
	"fmt"
	"sort"
	"strings"

	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/token"
)

// Check runs semantic analysis over the given files and returns the
// Program. The AST is decorated in place: every expression carries its
// type, and name uses carry their resolved symbols.
func Check(files ...*ast.File) (*Program, []error) { return new(Arena).Check(files...) }

// Check is the package-level Check, carving the program's locals from a.
func (a *Arena) Check(files ...*ast.File) (*Program, []error) {
	if a.names == nil {
		a.names = make(map[string]int32)
	}
	c := &checker{prog: newUniverse(), a: a}
	c.collectClasses(files)
	if len(c.errs) == 0 {
		c.linkHierarchy()
	}
	if len(c.errs) == 0 {
		c.collectMembers()
		c.checkOverrides()
	}
	if len(c.errs) == 0 {
		c.checkBodies()
	}
	c.leaveScopes()
	return c.prog, c.errs
}

type checker struct {
	prog *Program
	errs []error
	a    *Arena

	cls    *Class
	method *MethodSym
	info   *MethodInfo
	loops  int
}

func (c *checker) errorf(pos token.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------
// Phase 1: class collection and hierarchy linking.

func (c *checker) collectClasses(files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Classes {
			if prev, ok := c.prog.Classes[d.Name]; ok {
				if prev.Imported {
					c.errorf(d.P, "class %s conflicts with an imported host class", d.Name)
				} else {
					c.errorf(d.P, "class %s redeclared", d.Name)
				}
				continue
			}
			cls := &Class{Name: d.Name, Decl: d}
			c.prog.Classes[d.Name] = cls
			c.prog.Order = append(c.prog.Order, cls)
		}
	}
}

// onWalk marks a class on the current walk of linkHierarchy.
const onWalk = -1

// linkHierarchy links each user class to its superclass, reports the
// cycles, and sorts Program.Order, which collectClasses left in source
// order. Each walk goes up from a class in source order until it meets a
// class an earlier walk numbered, so every class is visited once; a walk
// that meets a class on itself has found a cycle, which it reports once,
// at that class, and breaks there.
func (c *checker) linkHierarchy() {
	for _, cls := range c.prog.Order {
		super := cls.Decl.Super
		if super == "" {
			cls.Super = c.prog.ClsObject
			continue
		}
		sc, ok := c.prog.Classes[super]
		if !ok {
			c.errorf(cls.Decl.P, "class %s extends unknown class %s", cls.Name, super)
			cls.Super = c.prog.ClsObject
			continue
		}
		if sc == c.prog.ClsString {
			c.errorf(cls.Decl.P, "class %s may not extend String", cls.Name)
			cls.Super = c.prog.ClsObject
			continue
		}
		cls.Super = sc
	}
	var walk []*Class
	for _, cls := range c.prog.Order {
		walk = walk[:0]
		x := cls
		for ; x != nil && x.depth == 0; x = x.Super {
			x.depth = onWalk
			walk = append(walk, x)
		}
		depth := 0
		if x != nil && x.depth == onWalk {
			c.errorf(x.Decl.P, "inheritance cycle involving %s", x.Name)
			x.Super = c.prog.ClsObject
		} else if x != nil {
			depth = x.depth
		}
		for i := len(walk) - 1; i >= 0; i-- {
			depth++
			walk[i].depth = depth
		}
	}
	if len(c.errs) > 0 {
		return
	}
	sort.Slice(c.prog.Order, func(i, j int) bool {
		a, b := c.prog.Order[i], c.prog.Order[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.Name < b.Name
	})
}

// ---------------------------------------------------------------------
// Phase 2: member collection.

func (c *checker) resolveType(t ast.TypeExpr) *Type {
	switch t := t.(type) {
	case *ast.PrimTypeExpr:
		switch t.Kind {
		case token.INT:
			return c.prog.Int
		case token.LONG:
			return c.prog.Long
		case token.DOUBLE:
			return c.prog.Double
		case token.BOOLEAN:
			return c.prog.Boolean
		case token.CHAR:
			return c.prog.Char
		case token.VOID:
			return c.prog.Void
		}
	case *ast.NamedTypeExpr:
		if cls, ok := c.prog.Classes[t.Name]; ok {
			return c.prog.ClassType(cls)
		}
		c.errorf(t.P, "unknown type %s", t.Name)
		return c.prog.Object
	case *ast.ArrayTypeExpr:
		elem := c.resolveType(t.Elem)
		if elem == c.prog.Void {
			c.errorf(t.P, "array of void")
			elem = c.prog.Int
		}
		return c.prog.ArrayOf(elem)
	}
	panic("sema: unhandled type expression")
}

func (c *checker) collectMembers() {
	for _, cls := range c.prog.Order {
		for _, fd := range cls.Decl.Fields {
			ft := c.resolveType(fd.Type)
			if ft == c.prog.Void {
				c.errorf(fd.P, "field %s has type void", fd.Name)
				ft = c.prog.Int
			}
			for _, prev := range cls.Fields {
				if prev.Name == fd.Name {
					c.errorf(fd.P, "field %s redeclared in %s", fd.Name, cls.Name)
				}
			}
			cls.Fields = append(cls.Fields, &FieldSym{Name: fd.Name, Type: ft, Static: fd.Static, Final: fd.Final, Owner: cls, Init: fd.Init})
		}
		for _, md := range cls.Decl.Methods {
			m := &MethodSym{Name: md.Name, Static: md.Static, IsCtor: md.IsCtor, Owner: cls, Decl: md}
			for _, prm := range md.Params {
				pt := c.resolveType(prm.Type)
				if pt == c.prog.Void {
					c.errorf(prm.P, "parameter %s has type void", prm.Name)
					pt = c.prog.Int
				}
				m.Params = append(m.Params, pt)
			}
			if md.IsCtor {
				m.Return = c.prog.Void
				for _, prev := range cls.Ctors {
					if prev.SameSignature(m) {
						c.errorf(md.P, "constructor %s redeclared", m.Sig())
					}
				}
				cls.Ctors = append(cls.Ctors, m)
				continue
			}
			m.Return = c.resolveType(md.Return)
			for _, prev := range cls.Methods {
				if prev.SameSignature(m) {
					c.errorf(md.P, "method %s redeclared", m.Sig())
				}
			}
			cls.Methods = append(cls.Methods, m)
		}
		if len(cls.Ctors) == 0 {
			cls.Ctors = append(cls.Ctors, &MethodSym{
				Name: cls.Name, IsCtor: true, Return: c.prog.Void,
				Owner: cls, Synthetic: true,
			})
		}
	}
}

// checkOverrides reports the two overrides a dispatch table cannot
// hold: a method that overrides the nearest inherited method of its name
// and parameters with another return type, and one that shares a
// superclass's static method's name and parameters. The layouts and
// dispatch tables themselves are the consumer's to derive
// (core.Module.DeriveTables).
//
// One walk down the class tree keeps what the class it is at inherits, by
// signature: the nearest virtual method, and whether a static one is
// above. A class's methods are added on the way down and taken out on the
// way back up, so the walk costs one step per method and class, however
// deep the hierarchy.
func (c *checker) checkOverrides() {
	w := overrideWalk{kids: map[*Class][]*Class{}}
	methods := 0
	for _, cls := range c.prog.Order {
		w.kids[cls.Super] = append(w.kids[cls.Super], cls)
		methods += len(cls.Methods)
	}
	for x := range w.kids {
		for ; x != nil && x.Imported; x = x.Super {
			methods += len(x.Methods)
		}
	}
	w.view = make(map[signature]inherited, methods)
	w.log = make([]undo, 0, methods)
	// The user classes hang from imported ones, whose superclasses are
	// entered first, the root first.
	for x, below := range w.kids {
		if !x.Imported {
			continue
		}
		mark := w.enterChain(x)
		for _, k := range below {
			w.visit(k)
		}
		w.leave(mark)
	}
	if len(w.bad) == 0 {
		return
	}

	// The errors in class order, as the classes are checked.
	found := map[*MethodSym]inherited{}
	for _, o := range w.bad {
		found[o.m] = o.in
	}
	for _, cls := range c.prog.Order {
		for _, m := range cls.Methods {
			in, ok := found[m]
			if !ok {
				continue
			}
			if in.static {
				c.errorf(m.Decl.P, "method %s overrides a static method", m.Sig())
			}
			if in.virtual != nil && in.virtual.Return != m.Return {
				c.errorf(m.Decl.P, "method %s overrides %s with a different return type", m.Sig(), in.virtual.Sig())
			}
		}
	}
}

// overrideWalk is checkOverrides' walk down the class tree: the classes
// below each class, what the class the walk is at inherits by signature,
// how to take a class's methods back out of it, and the overrides found.
type overrideWalk struct {
	kids map[*Class][]*Class
	view map[signature]inherited
	log  []undo
	bad  []override
}

// inherited is what a class inherits of a signature.
type inherited struct {
	virtual *MethodSym // the nearest virtual method of the signature
	static  bool       // a static method of the signature is above
}

type undo struct {
	sig signature
	was inherited
	had bool
}

type override struct {
	m  *MethodSym
	in inherited
}

// visit checks x's virtual methods against what x inherits, then walks
// the classes below x with x's methods entered.
func (w *overrideWalk) visit(x *Class) {
	for _, m := range x.Methods {
		if m.Static {
			continue
		}
		if in := w.view[signatureOf(m)]; in.static || in.virtual != nil && in.virtual.Return != m.Return {
			w.bad = append(w.bad, override{m, in})
		}
	}
	mark := w.enter(x)
	for _, k := range w.kids[x] {
		w.visit(k)
	}
	w.leave(mark)
}

// enterChain enters x's superclasses, the root first, and then x,
// returning where their undo starts.
func (w *overrideWalk) enterChain(x *Class) int {
	mark := len(w.log)
	if x.Super != nil {
		w.enterChain(x.Super)
	}
	w.enter(x)
	return mark
}

// enter adds x's methods to the view, returning where their undo starts.
func (w *overrideWalk) enter(x *Class) int {
	mark := len(w.log)
	for _, m := range x.Methods {
		sig := signatureOf(m)
		was, had := w.view[sig]
		w.log = append(w.log, undo{sig, was, had})
		if m.Static {
			was.static = true
		} else {
			was.virtual = m
		}
		w.view[sig] = was
	}
	return mark
}

// leave takes out of the view what was entered since mark.
func (w *overrideWalk) leave(mark int) {
	for i := len(w.log) - 1; i >= mark; i-- {
		if u := w.log[i]; u.had {
			w.view[u.sig] = u.was
		} else {
			delete(w.view, u.sig)
		}
	}
	w.log = w.log[:mark]
}

// signature is what SameSignature compares of a method, as a map key: its
// name and its parameter types, the first four by identity and the rest
// spelled out, so that a method of at most four parameters makes no
// string.
type signature struct {
	name   string
	params [4]*Type
	rest   string
}

func signatureOf(m *MethodSym) signature {
	s := signature{name: m.Name}
	n := copy(s.params[:], m.Params)
	if len(m.Params) > n {
		var b strings.Builder
		for _, p := range m.Params[n:] {
			b.WriteString(p.String())
			b.WriteByte(',')
		}
		s.rest = b.String()
	}
	return s
}

// ---------------------------------------------------------------------
// Phase 3: body checking.

func (c *checker) checkBodies() {
	for _, cls := range c.prog.Order {
		c.cls = cls
		for _, f := range cls.Fields {
			if f.Init != nil {
				c.method = nil
				c.info = c.a.infos.New(MethodInfo{})
				c.leaveScopes()
				t := c.checkExpr(f.Init)
				if !c.prog.Widens(t, f.Type) {
					c.errorf(f.Init.Pos(), "cannot initialize %s field %s with %s", f.Type, f.QName(), t)
				}
			}
		}
		for _, m := range cls.Ctors {
			c.checkMethodBody(m)
		}
		for _, m := range cls.Methods {
			c.checkMethodBody(m)
		}
	}
}

func (c *checker) checkMethodBody(m *MethodSym) {
	c.method = m
	c.info = c.a.infos.New(MethodInfo{})
	c.prog.MethodInfo[m] = c.info
	c.leaveScopes()
	c.loops = 0

	if m.Synthetic {
		c.resolveImplicitSuper(m, m.Owner.Decl.P)
		return
	}
	for i, prm := range m.Decl.Params {
		l := c.declareLocal(prm.Name, m.Params[i], prm.P)
		l.Param = true
	}
	c.checkBody(m)
	a := c.a
	c.info.Locals = a.localVec.Keep(a.made)
	if np := len(m.Decl.Params); np > 0 {
		c.info.Params = c.info.Locals[:np:np]
	}
	clear(a.made)
	a.made = a.made[:0]
}

// checkBody checks the statements of m's body.
func (c *checker) checkBody(m *MethodSym) {
	body := m.Decl.Body.Stmts
	if m.IsCtor {
		explicit := false
		if len(body) > 0 {
			if es, ok := body[0].(*ast.ExprStmt); ok {
				if sc, ok := es.X.(*ast.SuperCtorCall); ok {
					explicit = true
					c.checkSuperCtorCall(sc)
				}
			}
		}
		if !explicit {
			c.resolveImplicitSuper(m, m.Decl.P)
		}
		for i, s := range body {
			if i == 0 && explicit {
				continue
			}
			c.checkStmt(s)
		}
		return
	}
	for _, s := range body {
		c.checkStmt(s)
	}
}

func (c *checker) resolveImplicitSuper(m *MethodSym, pos token.Pos) {
	super := m.Owner.Super
	for _, ct := range super.Ctors {
		if len(ct.Params) == 0 {
			c.prog.ImplicitSuper[m] = ct
			return
		}
	}
	c.errorf(pos, "superclass %s has no no-argument constructor; add an explicit super(...) call in %s", super.Name, m.Sig())
}

func (c *checker) checkSuperCtorCall(sc *ast.SuperCtorCall) {
	if c.method == nil || !c.method.IsCtor {
		c.errorf(sc.P, "super(...) call outside a constructor")
		return
	}
	args := c.checkArgs(sc.Args)
	super := c.cls.Super
	m := c.resolveMethodOverload(super.Ctors, args, sc.P, "constructor "+super.Name)
	sc.Ctor = m
	sc.SetTypeInfo(c.prog.Void)
}

// declareLocal makes a local in the innermost scope. A name any open
// scope already holds is an error, once per scope holding it; the local is
// made all the same, and replaces the name's entry when the innermost
// scope is the one holding it.
func (c *checker) declareLocal(name string, t *Type, pos token.Pos) *Local {
	a := c.a
	depth := int32(len(a.marks))
	l := a.locals.New(Local{Name: name, Type: t, Index: len(a.made)})
	a.made = append(a.made, l)
	top, ok := a.names[name]
	if ok {
		for i := top; i >= 0; i = a.scope[i].prev {
			c.errorf(pos, "local %s redeclared", name)
		}
		if a.scope[top].depth == depth {
			a.scope[top].l = l
			return l
		}
	} else {
		top = -1
	}
	a.names[name] = int32(len(a.scope))
	a.scope = append(a.scope, scoped{l: l, prev: top, depth: depth})
	a.peak = max(a.peak, len(a.names))
	return l
}

func (c *checker) lookupLocal(name string) *Local {
	if i, ok := c.a.names[name]; ok {
		return c.a.scope[i].l
	}
	return nil
}

// pushScope opens a block scope; popScope closes the innermost one, giving
// each name it held back to the entry of an outer scope, if any.
func (c *checker) pushScope() { c.a.marks = append(c.a.marks, len(c.a.scope)) }

func (c *checker) popScope() {
	a := c.a
	mark := a.marks[len(a.marks)-1]
	a.marks = a.marks[:len(a.marks)-1]
	a.unscope(mark)
}

// leaveScopes closes every scope, the method's own included: what comes
// next starts with nothing in scope.
func (c *checker) leaveScopes() {
	c.a.marks = c.a.marks[:0]
	c.a.unscope(0)
}

// unscope removes the scope entries from mark up, newest first.
func (a *Arena) unscope(mark int) {
	for i := len(a.scope) - 1; i >= mark; i-- {
		e := a.scope[i]
		if e.prev >= 0 {
			a.names[e.l.Name] = e.prev
		} else {
			delete(a.names, e.l.Name)
		}
		a.scope[i] = scoped{}
	}
	a.scope = a.scope[:mark]
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.pushScope()
		for _, st := range s.Stmts {
			c.checkStmt(st)
		}
		c.popScope()
	case *ast.EmptyStmt:
	case *ast.VarDeclStmt:
		t := c.resolveType(s.Type)
		if t == c.prog.Void {
			c.errorf(s.P, "variable %s has type void", s.Name)
			t = c.prog.Int
		}
		if s.Init != nil {
			it := c.checkExpr(s.Init)
			if !c.prog.Widens(it, t) {
				c.errorf(s.Init.Pos(), "cannot initialize %s %s with %s", t, s.Name, it)
			}
		}
		c.prog.DeclLocal[s] = c.declareLocal(s.Name, t, s.P)
	case *ast.ExprStmt:
		switch x := s.X.(type) {
		case *ast.Assign, *ast.IncDec, *ast.CallExpr, *ast.NewObject, *ast.SuperCall:
			c.checkExpr(s.X)
			_ = x
		case *ast.SuperCtorCall:
			c.errorf(s.P, "super(...) is only allowed as the first statement of a constructor")
		default:
			c.errorf(s.P, "expression statement must be an assignment, call, or increment")
			c.checkExpr(s.X)
		}
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
	case *ast.DoWhileStmt:
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		c.checkCond(s.Cond)
	case *ast.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.popScope()
	case *ast.ReturnStmt:
		want := c.prog.Void
		if c.method != nil && c.method.Return != nil {
			want = c.method.Return
		}
		if s.X == nil {
			if want != c.prog.Void {
				c.errorf(s.P, "missing return value (want %s)", want)
			}
			return
		}
		got := c.checkExpr(s.X)
		if want == c.prog.Void {
			c.errorf(s.P, "void method returns a value")
		} else if !c.prog.Widens(got, want) {
			c.errorf(s.P, "cannot return %s from a method returning %s", got, want)
		}
	case *ast.BreakStmt:
		if c.loops == 0 {
			c.errorf(s.P, "break outside a loop")
		}
	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.errorf(s.P, "continue outside a loop")
		}
	case *ast.ThrowStmt:
		t := c.checkExpr(s.X)
		if t.Kind != KindClass || !t.Class.IsSubclassOf(c.prog.ClsThrowable) {
			c.errorf(s.P, "thrown value must be a Throwable, have %s", t)
		}
	case *ast.TryStmt:
		c.checkStmt(s.Body)
		for _, cc := range s.Catches {
			t := c.resolveType(cc.Type)
			if t.Kind != KindClass || !t.Class.IsSubclassOf(c.prog.ClsThrowable) {
				c.errorf(cc.P, "catch type must be a Throwable, have %s", t)
				t = c.prog.ClassType(c.prog.ClsThrowable)
			}
			c.pushScope()
			c.prog.CatchLocal[cc] = c.declareLocal(cc.Name, t, cc.P)
			for _, st := range cc.Body.Stmts {
				c.checkStmt(st)
			}
			c.popScope()
		}
		if s.Finally != nil {
			c.checkStmt(s.Finally)
		}
	default:
		panic(fmt.Sprintf("sema: unhandled statement %T", s))
	}
}

func (c *checker) checkCond(x ast.Expr) {
	t := c.checkExpr(x)
	if t != c.prog.Boolean {
		c.errorf(x.Pos(), "condition must be boolean, have %s", t)
	}
}

// unaryPromote implements Java's unary numeric promotion (char → int).
func (c *checker) unaryPromote(t *Type) *Type {
	if t.Kind == KindChar {
		return c.prog.Int
	}
	return t
}

func (c *checker) checkArgs(args []ast.Expr) []*Type {
	out := make([]*Type, len(args))
	for i, a := range args {
		out[i] = c.checkExpr(a)
	}
	return out
}

// set assigns the expression's type and returns it.
func set(e ast.Expr, t *Type) *Type {
	e.SetTypeInfo(t)
	return t
}

// TypeOf extracts the checker-assigned type of an expression.
func TypeOf(e ast.Expr) *Type {
	t, _ := e.TypeInfo().(*Type)
	return t
}

func (c *checker) checkExpr(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return set(e, c.prog.Int)
	case *ast.LongLit:
		return set(e, c.prog.Long)
	case *ast.DoubleLit:
		return set(e, c.prog.Double)
	case *ast.BoolLit:
		return set(e, c.prog.Boolean)
	case *ast.CharLit:
		return set(e, c.prog.Char)
	case *ast.StringLit:
		return set(e, c.prog.String)
	case *ast.NullLit:
		return set(e, c.prog.Null)
	case *ast.ThisExpr:
		if c.method == nil || c.method.Static {
			c.errorf(e.P, "this used in a static context")
			return set(e, c.prog.Object)
		}
		return set(e, c.prog.ClassType(c.cls))
	case *ast.Ident:
		return c.checkIdent(e)
	case *ast.FieldAccess:
		return c.checkFieldAccess(e)
	case *ast.IndexExpr:
		xt := c.checkExpr(e.X)
		it := c.checkExpr(e.Index)
		if !c.prog.Widens(it, c.prog.Int) || it == c.prog.Double || it == c.prog.Long {
			c.errorf(e.Index.Pos(), "array index must be int, have %s", it)
		}
		if xt.Kind != KindArray {
			c.errorf(e.P, "indexed value is not an array (have %s)", xt)
			return set(e, c.prog.Int)
		}
		return set(e, xt.Elem)
	case *ast.CallExpr:
		return c.checkCall(e)
	case *ast.SuperCall:
		return c.checkSuperMethodCall(e)
	case *ast.SuperCtorCall:
		c.checkSuperCtorCall(e)
		return c.prog.Void
	case *ast.NewObject:
		return c.checkNewObject(e)
	case *ast.NewArray:
		return c.checkNewArray(e)
	case *ast.Unary:
		return c.checkUnary(e)
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Assign:
		return c.checkAssign(e)
	case *ast.IncDec:
		t := c.checkExpr(e.X)
		if !t.IsNumeric() {
			c.errorf(e.P, "operand of %s must be numeric, have %s", e.Op, t)
		}
		c.checkLValue(e.X)
		return set(e, t)
	case *ast.Cast:
		return c.checkCast(e)
	case *ast.InstanceOf:
		xt := c.checkExpr(e.X)
		tt := c.resolveType(e.Type)
		if !xt.IsRef() {
			c.errorf(e.P, "instanceof requires a reference operand, have %s", xt)
		}
		if !tt.IsRef() || tt.Kind == KindNull {
			c.errorf(e.P, "instanceof requires a reference type, have %s", tt)
			tt = c.prog.Object
		}
		c.prog.InstanceOfType[e] = tt
		return set(e, c.prog.Boolean)
	case *ast.Cond:
		c.checkCond(e.C)
		tt := c.checkExpr(e.Then)
		et := c.checkExpr(e.Else)
		return set(e, c.condType(e.P, tt, et))
	}
	panic(fmt.Sprintf("sema: unhandled expression %T", e))
}

// condType unifies the arms of a ?: expression.
func (c *checker) condType(pos token.Pos, a, b *Type) *Type {
	switch {
	case a == b:
		return a
	case a.IsNumeric() && b.IsNumeric():
		return c.prog.Promote(a, b)
	case a.Kind == KindNull && b.IsRef():
		return b
	case b.Kind == KindNull && a.IsRef():
		return a
	case a.IsRef() && b.IsRef():
		return c.commonSuper(a, b)
	}
	c.errorf(pos, "incompatible conditional arms %s and %s", a, b)
	return a
}

func (c *checker) commonSuper(a, b *Type) *Type {
	if a.Kind == KindArray || b.Kind == KindArray {
		if a == b {
			return a
		}
		return c.prog.Object
	}
	for x := a.Class; x != nil; x = x.Super {
		if b.Class.IsSubclassOf(x) {
			return c.prog.ClassType(x)
		}
	}
	return c.prog.Object
}

func (c *checker) checkLValue(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok {
		if _, isClass := id.Sym.(*ClassRef); isClass {
			c.errorf(id.P, "%s is a class name, not a variable", id.Name)
		}
	}
}

func (c *checker) checkIdent(e *ast.Ident) *Type {
	if l := c.lookupLocal(e.Name); l != nil {
		e.Sym = l
		return set(e, l.Type)
	}
	if c.cls != nil {
		if f := c.cls.LookupField(e.Name); f != nil {
			if !f.Static && (c.method == nil || c.method.Static) {
				c.errorf(e.P, "instance field %s used in a static context", f.QName())
			}
			e.Sym = f
			return set(e, f.Type)
		}
	}
	if cls, ok := c.prog.Classes[e.Name]; ok {
		e.Sym = c.a.refs.New(ClassRef{Class: cls})
		return set(e, c.prog.ClassType(cls))
	}
	c.errorf(e.P, "undefined name %s", e.Name)
	e.Sym = c.a.locals.New(Local{Name: e.Name, Type: c.prog.Int})
	return set(e, c.prog.Int)
}

// isClassName reports whether e is an identifier that names a class (and
// not a local or field shadowing it).
func (c *checker) isClassName(e ast.Expr) (*Class, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if c.lookupLocal(id.Name) != nil {
		return nil, false
	}
	if c.cls != nil && c.cls.LookupField(id.Name) != nil {
		return nil, false
	}
	cls, ok := c.prog.Classes[id.Name]
	return cls, ok
}

func (c *checker) checkFieldAccess(e *ast.FieldAccess) *Type {
	// Static field access: ClassName.field.
	if cls, ok := c.isClassName(e.X); ok {
		id := e.X.(*ast.Ident)
		id.Sym = &ClassRef{Class: cls}
		id.SetTypeInfo(c.prog.ClassType(cls))
		f := cls.LookupField(e.Name)
		if f == nil || !f.Static {
			c.errorf(e.P, "class %s has no static field %s", cls.Name, e.Name)
			return set(e, c.prog.Int)
		}
		e.Sym = f
		e.IsStaticClass = true
		return set(e, f.Type)
	}
	// System.out used directly as a value is rejected; it is only valid
	// as a call receiver (handled in checkCall).
	if id, ok := e.X.(*ast.Ident); ok && id.Name == "System" && e.Name == "out" &&
		c.lookupLocal("System") == nil && (c.cls == nil || c.cls.LookupField("System") == nil) {
		c.errorf(e.P, "System.out may only be used as a call receiver")
		return set(e, c.prog.Object)
	}
	xt := c.checkExpr(e.X)
	if xt.Kind == KindArray {
		if e.Name != "length" {
			c.errorf(e.P, "arrays have no field %s", e.Name)
			return set(e, c.prog.Int)
		}
		e.IsLength = true
		return set(e, c.prog.Int)
	}
	if xt.Kind != KindClass {
		c.errorf(e.P, "%s has no fields", xt)
		return set(e, c.prog.Int)
	}
	f := xt.Class.LookupField(e.Name)
	if f == nil {
		c.errorf(e.P, "class %s has no field %s", xt.Class.Name, e.Name)
		return set(e, c.prog.Int)
	}
	if f.Static {
		c.errorf(e.P, "static field %s accessed through an instance", f.QName())
	}
	e.Sym = f
	return set(e, f.Type)
}

// resolveMethodOverload picks the unique applicable, most specific method.
func (c *checker) resolveMethodOverload(cands []*MethodSym, args []*Type, pos token.Pos, what string) *MethodSym {
	sigs := make([][]*Type, len(cands))
	for i, m := range cands {
		sigs[i] = m.Params
	}
	idx := c.resolveOverload(sigs, args, pos, what)
	if idx < 0 {
		return nil
	}
	return cands[idx]
}

func (c *checker) resolveBuiltinOverload(cands []*Builtin, args []*Type, pos token.Pos, what string) *Builtin {
	sigs := make([][]*Type, len(cands))
	for i, b := range cands {
		sigs[i] = b.Params
	}
	idx := c.resolveOverload(sigs, args, pos, what)
	if idx < 0 {
		return nil
	}
	return cands[idx]
}

// resolveOverload implements two-phase overload resolution: exact match,
// then widening applicability with most-specific selection.
func (c *checker) resolveOverload(sigs [][]*Type, args []*Type, pos token.Pos, what string) int {
	exact := -1
	var applicable []int
	for i, sig := range sigs {
		if len(sig) != len(args) {
			continue
		}
		allExact, allWiden := true, true
		for j := range sig {
			if args[j] != sig[j] {
				allExact = false
			}
			if !c.prog.Widens(args[j], sig[j]) {
				allWiden = false
			}
		}
		if allExact {
			if exact >= 0 {
				c.errorf(pos, "ambiguous call to %s", what)
				return exact
			}
			exact = i
		}
		if allWiden {
			applicable = append(applicable, i)
		}
	}
	if exact >= 0 {
		return exact
	}
	switch len(applicable) {
	case 0:
		c.errorf(pos, "no applicable overload of %s for argument types %s", what, typeList(args))
		return -1
	case 1:
		return applicable[0]
	}
	// Most-specific: m is most specific if its parameter list widens to
	// every other applicable parameter list.
	for _, i := range applicable {
		best := true
		for _, j := range applicable {
			if i == j {
				continue
			}
			for k := range sigs[i] {
				if !c.prog.Widens(sigs[i][k], sigs[j][k]) {
					best = false
					break
				}
			}
			if !best {
				break
			}
		}
		if best {
			return i
		}
	}
	c.errorf(pos, "ambiguous call to %s for argument types %s", what, typeList(args))
	return applicable[0]
}

func typeList(ts []*Type) string {
	s := "("
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + ")"
}

func (c *checker) checkCall(e *ast.CallExpr) *Type {
	// System.out.println / print.
	if fa, ok := e.Recv.(*ast.FieldAccess); ok {
		if id, ok := fa.X.(*ast.Ident); ok && id.Name == "System" && fa.Name == "out" &&
			c.lookupLocal("System") == nil && (c.cls == nil || c.cls.LookupField("System") == nil) {
			cands := c.prog.printBuiltins(e.Name)
			if cands == nil {
				c.errorf(e.P, "System.out has no method %s", e.Name)
				return set(e, c.prog.Void)
			}
			args := c.checkArgs(e.Args)
			b := c.resolveBuiltinOverload(cands, args, e.P, "System.out."+e.Name)
			if b == nil {
				return set(e, c.prog.Void)
			}
			e.Sym = b
			e.Static = true
			return set(e, b.Return)
		}
	}
	// Math.<fn> and ClassName.staticMethod.
	if e.Recv != nil {
		if cls, ok := c.isClassName(e.Recv); ok {
			id := e.Recv.(*ast.Ident)
			id.Sym = &ClassRef{Class: cls}
			id.SetTypeInfo(c.prog.ClassType(cls))
			args := c.checkArgs(e.Args)
			m := c.resolveMethodOverload(staticsNamed(cls, e.Name), args, e.P, cls.Name+"."+e.Name)
			if m == nil {
				return set(e, c.prog.Void)
			}
			e.Sym = m
			e.Static = true
			return set(e, m.Return)
		}
		if id, ok := e.Recv.(*ast.Ident); ok && id.Name == "Math" &&
			c.lookupLocal("Math") == nil && (c.cls == nil || c.cls.LookupField("Math") == nil) {
			cands := c.prog.mathBuiltins(e.Name)
			if cands == nil {
				c.errorf(e.P, "Math has no function %s", e.Name)
				return set(e, c.prog.Double)
			}
			args := c.checkArgs(e.Args)
			b := c.resolveBuiltinOverload(cands, args, e.P, "Math."+e.Name)
			if b == nil {
				return set(e, c.prog.Double)
			}
			e.Sym = b
			e.Static = true
			return set(e, b.Return)
		}
	}

	args := c.checkArgs(e.Args)

	if e.Recv == nil {
		// Unqualified call: method of the current class.
		if c.cls == nil {
			c.errorf(e.P, "call %s outside a class body", e.Name)
			return set(e, c.prog.Void)
		}
		cands := c.cls.MethodsNamed(e.Name)
		m := c.resolveMethodOverload(cands, args, e.P, c.cls.Name+"."+e.Name)
		if m == nil {
			return set(e, c.prog.Void)
		}
		if !m.Static && (c.method == nil || c.method.Static) {
			c.errorf(e.P, "instance method %s called from a static context", m.Sig())
		}
		e.Sym = m
		e.Static = m.Static
		return set(e, m.Return)
	}

	rt := c.checkExpr(e.Recv)
	if rt.Kind != KindClass {
		c.errorf(e.P, "%s has no methods", rt)
		return set(e, c.prog.Void)
	}
	m := c.resolveMethodOverload(rt.Class.MethodsNamed(e.Name), args, e.P, rt.Class.Name+"."+e.Name)
	if m == nil {
		return set(e, c.prog.Void)
	}
	if m.Static {
		c.errorf(e.P, "static method %s called through an instance", m.Sig())
	}
	e.Sym = m
	e.Static = false
	return set(e, m.Return)
}

func staticsNamed(cls *Class, name string) []*MethodSym {
	var out []*MethodSym
	for x := cls; x != nil; x = x.Super {
		for _, m := range x.Methods {
			if m.Name == name && m.Static {
				out = append(out, m)
			}
		}
	}
	return out
}

func (c *checker) checkSuperMethodCall(e *ast.SuperCall) *Type {
	if c.method == nil || c.method.Static {
		c.errorf(e.P, "super call in a static context")
		return set(e, c.prog.Void)
	}
	args := c.checkArgs(e.Args)
	m := c.resolveMethodOverload(c.cls.Super.MethodsNamed(e.Name), args, e.P, "super."+e.Name)
	if m == nil {
		return set(e, c.prog.Void)
	}
	e.Sym = m
	return set(e, m.Return)
}

func (c *checker) checkNewObject(e *ast.NewObject) *Type {
	cls, ok := c.prog.Classes[e.TypeName]
	if !ok {
		c.errorf(e.P, "unknown class %s", e.TypeName)
		return set(e, c.prog.Object)
	}
	if cls == c.prog.ClsObject || cls == c.prog.ClsString {
		c.errorf(e.P, "cannot instantiate %s directly", cls.Name)
	}
	args := c.checkArgs(e.Args)
	ct := c.resolveMethodOverload(cls.Ctors, args, e.P, "constructor "+cls.Name)
	e.Ctor = ct
	return set(e, c.prog.ClassType(cls))
}

func (c *checker) checkNewArray(e *ast.NewArray) *Type {
	base := c.resolveType(e.Base)
	if base == c.prog.Void {
		c.errorf(e.P, "array of void")
		base = c.prog.Int
	}
	for _, l := range e.Lens {
		lt := c.checkExpr(l)
		if lt != c.prog.Int && lt != c.prog.Char {
			c.errorf(l.Pos(), "array length must be int, have %s", lt)
		}
	}
	t := base
	for i := 0; i < len(e.Lens)+e.ExtraDims; i++ {
		t = c.prog.ArrayOf(t)
	}
	return set(e, t)
}

func (c *checker) checkUnary(e *ast.Unary) *Type {
	t := c.checkExpr(e.X)
	switch e.Op {
	case token.SUB, token.ADD:
		if !t.IsNumeric() {
			c.errorf(e.P, "operand of unary %s must be numeric, have %s", e.Op, t)
			return set(e, c.prog.Int)
		}
		return set(e, c.unaryPromote(t))
	case token.NOT:
		if t != c.prog.Boolean {
			c.errorf(e.P, "operand of ! must be boolean, have %s", t)
		}
		return set(e, c.prog.Boolean)
	case token.TILDE:
		if !t.IsIntegral() {
			c.errorf(e.P, "operand of ~ must be integral, have %s", t)
			return set(e, c.prog.Int)
		}
		return set(e, c.unaryPromote(t))
	}
	panic("sema: unhandled unary operator " + e.Op.String())
}

func (c *checker) checkBinary(e *ast.Binary) *Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	switch e.Op {
	case token.ADD:
		if xt == c.prog.String || yt == c.prog.String {
			return set(e, c.prog.String)
		}
		fallthrough
	case token.SUB, token.MUL, token.QUO, token.REM:
		if !xt.IsNumeric() || !yt.IsNumeric() {
			c.errorf(e.P, "operands of %s must be numeric, have %s and %s", e.Op, xt, yt)
			return set(e, c.prog.Int)
		}
		return set(e, c.prog.Promote(xt, yt))
	case token.SHL, token.SHR:
		if !xt.IsIntegral() || !yt.IsIntegral() {
			c.errorf(e.P, "operands of %s must be integral, have %s and %s", e.Op, xt, yt)
			return set(e, c.prog.Int)
		}
		return set(e, c.unaryPromote(xt))
	case token.AND, token.OR, token.XOR:
		if xt == c.prog.Boolean && yt == c.prog.Boolean {
			return set(e, c.prog.Boolean)
		}
		if xt.IsIntegral() && yt.IsIntegral() {
			return set(e, c.prog.Promote(xt, yt))
		}
		c.errorf(e.P, "operands of %s must both be boolean or both integral, have %s and %s", e.Op, xt, yt)
		return set(e, c.prog.Int)
	case token.LAND, token.LOR:
		if xt != c.prog.Boolean || yt != c.prog.Boolean {
			c.errorf(e.P, "operands of %s must be boolean, have %s and %s", e.Op, xt, yt)
		}
		return set(e, c.prog.Boolean)
	case token.EQL, token.NEQ:
		switch {
		case xt.IsNumeric() && yt.IsNumeric():
		case xt == c.prog.Boolean && yt == c.prog.Boolean:
		case xt.IsRef() && yt.IsRef() &&
			(c.prog.Widens(xt, yt) || c.prog.Widens(yt, xt)):
		default:
			c.errorf(e.P, "incomparable operands %s and %s", xt, yt)
		}
		return set(e, c.prog.Boolean)
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if !xt.IsNumeric() || !yt.IsNumeric() {
			c.errorf(e.P, "operands of %s must be numeric, have %s and %s", e.Op, xt, yt)
		}
		return set(e, c.prog.Boolean)
	}
	panic("sema: unhandled binary operator " + e.Op.String())
}

func (c *checker) checkAssign(e *ast.Assign) *Type {
	lt := c.checkExpr(e.LHS)
	c.checkLValue(e.LHS)
	rt := c.checkExpr(e.RHS)
	if e.Op == token.ASSIGN {
		if !c.prog.Widens(rt, lt) {
			c.errorf(e.P, "cannot assign %s to %s", rt, lt)
		}
		return set(e, lt)
	}
	op := e.Op.CompoundOp()
	switch op {
	case token.ADD:
		if lt == c.prog.String {
			return set(e, lt)
		}
		fallthrough
	case token.SUB, token.MUL, token.QUO, token.REM:
		if !lt.IsNumeric() || !rt.IsNumeric() {
			c.errorf(e.P, "operands of %s must be numeric, have %s and %s", e.Op, lt, rt)
		}
	case token.SHL, token.SHR:
		if !lt.IsIntegral() || !rt.IsIntegral() {
			c.errorf(e.P, "operands of %s must be integral, have %s and %s", e.Op, lt, rt)
		}
	case token.AND, token.OR, token.XOR:
		okBool := lt == c.prog.Boolean && rt == c.prog.Boolean
		okInt := lt.IsIntegral() && rt.IsIntegral()
		if !okBool && !okInt {
			c.errorf(e.P, "operands of %s must both be boolean or both integral, have %s and %s", e.Op, lt, rt)
		}
	}
	return set(e, lt)
}

func (c *checker) checkCast(e *ast.Cast) *Type {
	xt := c.checkExpr(e.X)
	tt := c.resolveType(e.Type)
	switch {
	case xt == tt:
	case xt.IsNumeric() && tt.IsNumeric():
	case xt.IsRef() && tt.IsRef() && tt.Kind != KindNull:
		if xt.Kind != KindNull && !c.prog.Widens(xt, tt) && !c.prog.Widens(tt, xt) {
			c.errorf(e.P, "impossible cast from %s to %s", xt, tt)
		}
	default:
		c.errorf(e.P, "invalid cast from %s to %s", xt, tt)
	}
	return set(e, tt)
}
