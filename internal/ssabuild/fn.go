package ssabuild

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/sema"
)

// snapshot is one version map of the locals at a program point: the
// current SSA value of each local, indexed by the local's per-method
// number (sema.Local.Index; synthetic locals are numbered after the
// declared ones), NoValue for a local that is not in scope. A snapshot
// taken before a synthetic local was made is shorter than one taken
// after, which reads the same as "not in scope".
type snapshot []core.ValueID

func (s snapshot) get(l *sema.Local) core.ValueID {
	if l.Index < len(s) {
		return s[l.Index]
	}
	return core.NoValue
}

// localSet is a set of locals, indexed like a snapshot.
type localSet []bool

func (s localSet) has(l *sema.Local) bool { return l.Index < len(s) && s[l.Index] }

func (s localSet) add(l *sema.Local) {
	if l.Index < len(s) {
		s[l.Index] = true
	}
}

// edgeSnap pairs an incoming edge with the variable versions at its
// source point.
type edgeSnap struct {
	from *core.Block
	vars snapshot
}

// phiSlot tracks a pessimistically placed loop-header (or handler) phi
// whose trailing operands are appended as the loop's back and continue
// edges are discovered.
type phiSlot struct {
	local *sema.Local
	phi   *core.Instr
}

// loopCtx is the state of the innermost loop being built.
type loopCtx struct {
	header     *core.Block // continue target (while header / do-while body entry?)
	headerPhis []phiSlot
	// contToHeader is true for while-shaped loops, where continue edges
	// go straight to the header and extend the header phis.
	contToHeader bool
	contSnaps    []edgeSnap // do-while: continue edges to the latch join
	breakSnaps   []edgeSnap
	postAST      []ast.Stmt // for-loop update, inlined at continue sites
	triesBase    int        // len(fb.tries) at loop entry
}

// tryCtx is the state of an enclosing try statement.
type tryCtx struct {
	finallyAST *ast.BlockStmt // inlined on every exit path
	// routing is true while the protected body is being built: throwing
	// instructions register exception edges here.
	routing bool
	sites   []siteSnap
}

// siteSnap is one potential point of exception: an instruction site or
// an explicit throw node, with the variable versions live at that point.
type siteSnap struct {
	from *core.Block
	site *core.Instr // nil for CThrow edges
	vars snapshot
}

// fnBuilder builds one function body.
type fnBuilder struct {
	b *Builder
	m *sema.MethodSym
	f *core.Func

	// cur is the block being filled, nil when the current path has
	// terminated; it changes through setCur alone. code stages cur's
	// instructions: a block is filled in one stretch, so its Code is cut
	// to size once, when the builder moves on.
	cur  *core.Block
	code []*core.Instr
	// phis stages the phis of the join being made.
	phis []*core.Instr
	// seq points at the CST sequence currently being extended — the one
	// holding cur's leaf. Expression lowerings (short-circuit operators,
	// multi-dimensional array allocation) append their control nodes
	// here.
	seq  *[]*core.CSTNode
	vars snapshot
	// nlocals is the length of a snapshot: the method's declared locals
	// plus the synthetic ones made so far.
	nlocals int
	// scope lists the locals currently in scope, in declaration order;
	// all deterministic iteration over variables uses it.
	scope []*sema.Local
	recv  core.ValueID // receiver value (safe-ref plane), NoValue for statics

	consts      map[constKey]core.ValueID
	constInstrs []*core.Instr
	paramInstrs []*core.Instr

	loops []*loopCtx
	tries []*tryCtx

	// inFinally suppresses re-inlining a finally block into exits that
	// occur within the finally block itself.
	inFinally int
}

type constKey struct {
	kind core.ConstKind
	i    int64
	d    float64
	s    string
	t    core.TypeID // plane, for null constants
}

// newFnBuilderRaw starts the body with the given claim, its entry block
// pre-loading the parameters the claim's signature gives it.
func newFnBuilderRaw(b *Builder, claim int32, info *sema.MethodInfo) *fnBuilder {
	fb := &fnBuilder{
		b:       b,
		f:       core.NewFunc(claim),
		nlocals: len(info.Locals),
		consts:  make(map[constKey]core.ValueID),
	}
	fb.vars = fb.newSnapshot()
	entry := fb.newBlock(nil)
	fb.f.Entry = entry
	fb.setCur(entry)
	fb.paramInstrs = make([]*core.Instr, b.mod.NumParams(fb.f))
	for i := range fb.paramInstrs {
		in := b.instrs.One()
		*in = core.Instr{Op: core.OpParam, Type: b.mod.Param(fb.f, i), Aux: int32(i), Blk: entry}
		fb.f.Define(in)
		fb.paramInstrs[i] = in
	}
	return fb
}

func newFnBuilder(b *Builder, m *sema.MethodSym) *fnBuilder {
	info := b.prog.MethodInfo[m]
	if info == nil {
		info = &sema.MethodInfo{}
	}
	fb := newFnBuilderRaw(b, b.methodRef(m), info)
	fb.m = m
	off := 0
	if !m.Static {
		fb.recv = fb.paramInstrs[0].ID
		off = 1
	}
	for i, l := range info.Params {
		fb.vars[l.Index] = fb.paramInstrs[off+i].ID
		fb.scope = append(fb.scope, l)
	}
	return fb
}

func (fb *fnBuilder) tt() *core.TypeTable { return fb.b.mod.Types }

// newSnapshot returns a snapshot with every local out of scope. Snapshots
// are carved from a builder-owned slab: they die with the build.
func (fb *fnBuilder) newSnapshot() snapshot { return fb.b.snaps.Take(fb.nlocals) }

func (fb *fnBuilder) cloneSnapshot(s snapshot) snapshot {
	out := fb.newSnapshot()
	copy(out, s)
	return out
}

func (fb *fnBuilder) snapshotVars() snapshot { return fb.cloneSnapshot(fb.vars) }

// get and set read and write the current version of a local.
func (fb *fnBuilder) get(l *sema.Local) core.ValueID { return fb.vars.get(l) }

func (fb *fnBuilder) set(l *sema.Local, v core.ValueID) {
	for l.Index >= len(fb.vars) { // a snapshot from before l was made
		fb.vars = append(fb.vars, core.NoValue)
	}
	fb.vars[l.Index] = v
}

// vals returns an operand vector holding vs, carved from the module's
// operand slab.
func (fb *fnBuilder) vals(vs ...core.ValueID) []core.ValueID { return fb.b.args.Keep(vs) }

// node returns a CST node holding n, carved from the module's node slab.
func (fb *fnBuilder) node(n core.CSTNode) *core.CSTNode {
	out := fb.b.nodes.One()
	*out = n
	return out
}

// seqOf wraps a finished child sequence in its CSeq node.
func (fb *fnBuilder) seqOf(kids []*core.CSTNode) *core.CSTNode {
	return fb.node(core.CSTNode{Kind: core.CSeq, Kids: kids})
}

// kids is the children vector of a node of fixed arity (if, while,
// do-while, try).
func (fb *fnBuilder) kids(ns ...*core.CSTNode) []*core.CSTNode { return fb.b.nodeVec.Keep(ns) }

// emit appends an instruction to the current block, defining its result
// value when it has one, and registers exception edges for throwing
// instructions inside try regions. The instruction is carved from the
// module's slab.
func (fb *fnBuilder) emit(proto core.Instr) core.ValueID {
	if fb.cur == nil {
		panic("ssabuild: emit on terminated path in " + fb.b.mod.FuncName(fb.f))
	}
	in := fb.b.instrs.One()
	*in = proto
	in.Blk = fb.cur
	if in.Type != fb.tt().Void {
		fb.f.Define(in)
	}
	fb.code = append(fb.code, in)
	if in.Op.CanThrow() {
		if t := fb.routingTry(); t != nil {
			t.sites = append(t.sites, siteSnap{from: fb.cur, site: in, vars: fb.snapshotVars()})
		}
	}
	return in.ID
}

// setCur makes b (nil: none, the path has terminated) the block being
// filled, after giving the one filled so far its code. Only foldBlock
// hands it a block that already has some.
func (fb *fnBuilder) setCur(b *core.Block) {
	if fb.cur != nil {
		fb.cur.Code = fb.b.instrVec.Keep(fb.code)
	}
	fb.cur, fb.code = b, fb.code[:0]
	if b != nil {
		fb.code = append(fb.code, b.Code...)
	}
}

// routingTry returns the innermost try context that still routes
// exceptions (i.e. whose protected body is being built).
func (fb *fnBuilder) routingTry() *tryCtx {
	for i := len(fb.tries) - 1; i >= 0; i-- {
		if fb.tries[i].routing {
			return fb.tries[i]
		}
	}
	return nil
}

// newBlock creates a block with the given structural immediate dominator
// (nil for the entry), carved from the module's slab.
func (fb *fnBuilder) newBlock(idom *core.Block) *core.Block {
	b := fb.b.blocks.One()
	b.Index = len(fb.f.Blocks)
	b.IDom = idom
	fb.f.Blocks = append(fb.f.Blocks, b)
	return b
}

// branchBlock creates a block entered by the one edge from its structural
// immediate dominator c.
func (fb *fnBuilder) branchBlock(c *core.Block) *core.Block {
	b := fb.newBlock(c)
	b.Preds = fb.b.preds.Take(1)
	b.Preds[0].From = c
	return b
}

// headerBlock is branchBlock for a loop header: its edge list has room
// for the back edge.
func (fb *fnBuilder) headerBlock(c *core.Block) *core.Block {
	b := fb.newBlock(c)
	b.Preds = fb.b.preds.Take(2)[:1]
	b.Preds[0].From = c
	return b
}

// leaf is the CST leaf of block b.
func (fb *fnBuilder) leaf(b *core.Block) *core.CSTNode {
	return fb.node(core.CSTNode{Kind: core.CBlock, Block: b})
}

// enter makes b the current block and appends its CST leaf to seq.
func (fb *fnBuilder) enter(b *core.Block, seq *[]*core.CSTNode) {
	fb.setCur(b)
	fb.seq = seq
	*seq = append(*seq, fb.leaf(b))
}

// resume makes b current within seq without creating a leaf (the leaf was
// already placed when the block was set up).
func (fb *fnBuilder) resume(b *core.Block, seq *[]*core.CSTNode) {
	fb.setCur(b)
	fb.seq = seq
}

// newPhi defines a phi of block b; the caller places it in b.Phis.
func (fb *fnBuilder) newPhi(b *core.Block, plane core.TypeID, args []core.ValueID) *core.Instr {
	phi := fb.b.instrs.One()
	*phi = core.Instr{Op: core.OpPhi, Type: plane, Args: args, Blk: b}
	fb.f.Define(phi)
	return phi
}

// addHeaderPhis places the pessimistic phis of a loop entered at h: one
// per in-scope local the loop assigns (nil assigned = all in scope),
// opened with the version flowing in and with room for the back edge's.
func (fb *fnBuilder) addHeaderPhis(h *core.Block, assigned localSet) []phiSlot {
	n := 0
	for _, l := range fb.scope {
		if assigned == nil || assigned.has(l) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	slots := make([]phiSlot, 0, n)
	h.Phis = fb.b.instrVec.Take(n)[:0]
	for _, l := range fb.scope {
		if assigned != nil && !assigned.has(l) {
			continue
		}
		args := fb.b.args.Take(2)[:1]
		args[0] = fb.get(l)
		phi := fb.newPhi(h, fb.localPlane(l), args)
		h.Phis = append(h.Phis, phi)
		fb.set(l, phi.ID)
		slots = append(slots, phiSlot{l, phi})
	}
	return slots
}

// closeHeaderPhis appends the versions flowing along one more edge into a
// loop header (the back edge, a continue).
func (fb *fnBuilder) closeHeaderPhis(h *core.Block, slots []phiSlot) {
	h.Preds = append(h.Preds, core.Pred{From: fb.cur})
	for _, ps := range slots {
		ps.phi.Args = append(ps.phi.Args, fb.get(ps.local))
	}
}

// localPlane is the plane on which versions of a local live: the plain
// type of the local (never a safe shadow).
func (fb *fnBuilder) localPlane(l *sema.Local) core.TypeID { return fb.b.typeOf(l.Type) }

// structDominates walks the structural dominator chain (usable during
// construction, before Finish assigns the pre/post numbering).
func structDominates(a, b *core.Block) bool {
	for x := b; x != nil; x = x.IDom {
		if x == a {
			return true
		}
	}
	return false
}

// join creates a join block with the given incoming edges (in canonical
// order) and makes it current. A phi is placed for a local when its
// versions differ between the edges, or when the agreed version's
// definition is not a structural ancestor of the join — without the phi
// such a version would be inexpressible as an (l, r) reference, even
// though it dominates the join in the refined flow graph. With no edges
// the path is terminated.
func (fb *fnBuilder) join(snaps []edgeSnap, idom *core.Block, seq *[]*core.CSTNode) {
	if len(snaps) == 0 {
		fb.setCur(nil)
		fb.vars = fb.newSnapshot()
		return
	}
	j := fb.newBlock(idom)
	j.Preds = fb.b.preds.Take(len(snaps))
	for k, s := range snaps {
		j.Preds[k].From = s.from
	}
	merged := fb.newSnapshot()
	fb.phis = fb.phis[:0]
	for _, l := range fb.scope {
		first := snaps[0].vars.get(l)
		if first == core.NoValue {
			continue
		}
		same := true
		for _, s := range snaps[1:] {
			if s.vars.get(l) != first {
				same = false
				break
			}
		}
		if same {
			if def := fb.f.DefBlock(first); def == nil || structDominates(def, j) {
				merged[l.Index] = first
				continue
			}
		}
		args := fb.b.args.Take(len(snaps))
		for k, s := range snaps {
			args[k] = s.vars.get(l)
		}
		phi := fb.newPhi(j, fb.localPlane(l), args)
		fb.phis = append(fb.phis, phi)
		merged[l.Index] = phi.ID
	}
	j.Phis = fb.b.instrVec.Keep(fb.phis)
	fb.vars = merged
	fb.enter(j, seq)
}

// ---------------------------------------------------------------------
// Top level

func (fb *fnBuilder) build() error {
	seq := []*core.CSTNode{fb.leaf(fb.f.Entry)}
	fb.resume(fb.f.Entry, &seq)

	var body []ast.Stmt
	if fb.m.Synthetic {
		// Compiler-generated default constructor: super() + field inits.
		fb.emitCtorPreamble(nil, &seq)
	} else {
		body = fb.m.Decl.Body.Stmts
		if fb.m.IsCtor {
			var explicit *ast.SuperCtorCall
			if len(body) > 0 {
				if es, ok := body[0].(*ast.ExprStmt); ok {
					if sc, ok := es.X.(*ast.SuperCtorCall); ok {
						explicit = sc
						body = body[1:]
					}
				}
			}
			fb.emitCtorPreamble(explicit, &seq)
		}
	}
	fb.buildStmts(body, &seq)

	// Implicit return at the end of the method.
	if fb.cur != nil {
		ret := fb.node(core.CSTNode{Kind: core.CReturn, At: fb.cur})
		if res := fb.b.mod.Result(fb.f); res != fb.tt().Void {
			// TJ does not enforce reachability analysis, so a method
			// may fall off its end; return the zero value of the
			// result type, as documented in DESIGN.md.
			ret.Val = fb.zeroValue(res)
			ret.At = fb.cur
		}
		seq = append(seq, ret)
		fb.setCur(nil)
	}

	fb.f.Body = fb.seqOf(seq)
	fb.finish()
	return fb.b.mod.CheckStructuralDominators(fb.f)
}

// emitCtorPreamble emits the super-constructor call and the instance
// field initializers at the start of a constructor body.
func (fb *fnBuilder) emitCtorPreamble(explicit *ast.SuperCtorCall, seq *[]*core.CSTNode) {
	owner := fb.m.Owner
	var superCtor *sema.MethodSym
	var args []core.ValueID // slot 0 is the receiver's
	if explicit != nil {
		superCtor, _ = explicit.Ctor.(*sema.MethodSym)
		if superCtor != nil {
			args = fb.callArgs(1, explicit.Args, superCtor.Params)
		}
	} else if superCtor = fb.b.prog.ImplicitSuper[fb.m]; superCtor != nil {
		args = fb.b.args.Take(1)
	}
	if superCtor != nil {
		recv := fb.adjustRef(fb.recv, fb.tt().SafeRefOf(fb.b.classID(superCtor.Owner)))
		args[0] = recv
		fb.emit(core.Instr{
			Op: core.OpXCall, Type: fb.tt().Void,
			Method: fb.b.methodRef(superCtor),
			Args:   args,
		})
	}
	for _, fld := range owner.Fields {
		if fld.Static || fld.Init == nil {
			continue
		}
		v := fb.exprConv(fld.Init, fld.Type)
		if fb.cur == nil {
			return
		}
		recv := fb.adjustRef(fb.recv, fb.tt().SafeRefOf(fb.b.classID(fld.Owner)))
		fb.emit(core.Instr{
			Op: core.OpSetField, Type: fb.tt().Void,
			Field: fb.b.fieldRef(fld),
			Args:  fb.vals(recv, v),
		})
	}
	_ = seq
}

// finish splices the pre-loaded parameter and constant registers into the
// initial basic block (section 5) and computes the canonical ordering.
func (fb *fnBuilder) finish() {
	fb.setCur(nil)
	entry := fb.f.Entry
	pre := fb.b.instrVec.Take(len(fb.paramInstrs) + len(fb.constInstrs) + len(entry.Code))
	n := copy(pre, fb.paramInstrs)
	n += copy(pre[n:], fb.constInstrs)
	copy(pre[n:], entry.Code)
	entry.Code = pre
	if fb.f.Body == nil {
		fb.f.Body = fb.seqOf([]*core.CSTNode{fb.leaf(entry)})
	}
	fb.f.Finish()
}

// ---------------------------------------------------------------------
// Statements

func (fb *fnBuilder) buildStmts(stmts []ast.Stmt, seq *[]*core.CSTNode) {
	for _, s := range stmts {
		if fb.cur == nil {
			return // unreachable code after a terminator is dropped
		}
		fb.buildStmt(s, seq)
	}
}

func (fb *fnBuilder) buildStmt(s ast.Stmt, seq *[]*core.CSTNode) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		mark := len(fb.scope)
		fb.buildStmts(s.Stmts, seq)
		fb.popScope(mark)
	case *ast.EmptyStmt:
	case *ast.VarDeclStmt:
		l := fb.b.prog.DeclLocal[s]
		var v core.ValueID
		if s.Init != nil {
			v = fb.exprConv(s.Init, l.Type)
		} else {
			v = fb.zeroValue(fb.localPlane(l))
		}
		if fb.cur == nil {
			return
		}
		fb.set(l, v)
		fb.scope = append(fb.scope, l)
	case *ast.ExprStmt:
		fb.expr(s.X)
	case *ast.IfStmt:
		fb.buildIf(s, seq)
	case *ast.WhileStmt:
		fb.buildLoop(s.Cond, func(bodySeq *[]*core.CSTNode) {
			fb.buildStmt(s.Body, bodySeq)
		}, nil, fb.assignedLocals(s.Cond, s.Body), seq)
	case *ast.ForStmt:
		fb.buildFor(s, seq)
	case *ast.DoWhileStmt:
		fb.buildDoWhile(s, seq)
	case *ast.ReturnStmt:
		fb.buildReturn(s, seq)
	case *ast.BreakStmt:
		fb.buildBreak(seq)
	case *ast.ContinueStmt:
		fb.buildContinue(seq)
	case *ast.ThrowStmt:
		v := fb.expr(s.X)
		if fb.cur == nil {
			return
		}
		fb.throwValue(v, seq)
	case *ast.TryStmt:
		fb.buildTry(s, seq)
	default:
		panic(fmt.Sprintf("ssabuild: unhandled statement %T", s))
	}
}

func (fb *fnBuilder) popScope(mark int) {
	for _, l := range fb.scope[mark:] {
		fb.set(l, core.NoValue)
	}
	fb.scope = fb.scope[:mark]
}

func (fb *fnBuilder) buildIf(s *ast.IfStmt, seq *[]*core.CSTNode) {
	cond := fb.exprBool(s.Cond)
	if fb.cur == nil {
		return
	}
	c := fb.cur
	node := fb.node(core.CSTNode{Kind: core.CIf, At: c, Cond: cond})
	// The arms build on fb.vars in place: the then-arm on the incoming
	// snapshot itself, the else-arm on the copy taken here.
	entryVars := fb.snapshotVars()

	var thenSeq []*core.CSTNode
	fb.enter(fb.branchBlock(c), &thenSeq)
	mark := len(fb.scope)
	fb.buildStmt(s.Then, &thenSeq)
	fb.popScope(mark)

	var edges [2]edgeSnap
	snaps := edges[:0]
	if fb.cur != nil {
		snaps = append(snaps, edgeSnap{fb.cur, fb.vars})
	}
	fb.vars = entryVars
	if s.Else != nil {
		var elseSeq []*core.CSTNode
		fb.enter(fb.branchBlock(c), &elseSeq)
		fb.buildStmt(s.Else, &elseSeq)
		fb.popScope(mark)
		if fb.cur != nil {
			snaps = append(snaps, edgeSnap{fb.cur, fb.vars})
		}
		node.Kids = fb.kids(fb.seqOf(thenSeq), fb.seqOf(elseSeq))
	} else {
		snaps = append(snaps, edgeSnap{c, entryVars})
		node.Kids = fb.kids(fb.seqOf(thenSeq))
	}
	*seq = append(*seq, node)
	fb.join(snaps, c, seq)
}

// buildLoop builds a while-shaped loop: pessimistic phis at the header
// for the locals the loop assigns (nil assigned = all in scope),
// condition evaluation (possibly multi-block for short-circuit
// operators), body, back edge, and the exit join.
func (fb *fnBuilder) buildLoop(cond ast.Expr, bodyFn func(*[]*core.CSTNode), postAST []ast.Stmt,
	assigned localSet, seq *[]*core.CSTNode) {
	c := fb.cur
	h := fb.headerBlock(c)
	// Single-pass phi placement (Brandis–Mössenböck, with the paper's
	// refinement): one phi per assigned in-scope local; the remaining
	// superfluous ones are pruned by the producer-side DCE.
	ctx := &loopCtx{header: h, headerPhis: fb.addHeaderPhis(h, assigned),
		contToHeader: true, postAST: postAST, triesBase: len(fb.tries)}
	fb.loops = append(fb.loops, ctx)

	condSeq := []*core.CSTNode{fb.leaf(h)}
	fb.resume(h, &condSeq)
	condV := fb.exprBool(cond)
	condEnd := fb.cur
	condVars := fb.snapshotVars()

	node := fb.node(core.CSTNode{Kind: core.CWhile, Block: h, At: condEnd, Cond: condV})

	var bodySeq []*core.CSTNode
	fb.enter(fb.branchBlock(condEnd), &bodySeq)
	mark := len(fb.scope)
	bodyFn(&bodySeq)
	fb.popScope(mark)
	if fb.cur != nil {
		// Back edge closes the header phis.
		fb.closeHeaderPhis(h, ctx.headerPhis)
	}
	node.Kids = fb.kids(fb.seqOf(condSeq), fb.seqOf(bodySeq))
	fb.loops = fb.loops[:len(fb.loops)-1]
	*seq = append(*seq, node)

	fb.join(fb.exitSnaps(condEnd, condVars, ctx), condEnd, seq)
}

// exitSnaps lists the edges into a loop's exit join: the condition's
// false edge, then the breaks in walk-encounter order.
func (fb *fnBuilder) exitSnaps(condEnd *core.Block, condVars snapshot, ctx *loopCtx) []edgeSnap {
	snaps := make([]edgeSnap, 0, 1+len(ctx.breakSnaps))
	snaps = append(snaps, edgeSnap{condEnd, condVars})
	return append(snaps, ctx.breakSnaps...)
}

func (fb *fnBuilder) buildFor(s *ast.ForStmt, seq *[]*core.CSTNode) {
	mark := len(fb.scope)
	if s.Init != nil {
		fb.buildStmt(s.Init, seq)
	}
	if fb.cur == nil {
		fb.popScope(mark)
		return
	}
	cond := s.Cond
	if cond == nil {
		t := &ast.BoolLit{Value: true, P: s.P}
		t.SetTypeInfo(fb.b.prog.Boolean)
		cond = t
	}
	var post []ast.Stmt
	if s.Post != nil {
		post = []ast.Stmt{s.Post}
	}
	assigned := fb.assignedLocals(cond, s.Post, s.Body)
	fb.buildLoop(cond, func(bodySeq *[]*core.CSTNode) {
		fb.buildStmt(s.Body, bodySeq)
		// The update part runs after the body on the normal path;
		// continue sites inline it separately.
		if fb.cur != nil {
			fb.buildStmts(post, bodySeq)
		}
	}, post, assigned, seq)
	fb.popScope(mark)
}

func (fb *fnBuilder) buildDoWhile(s *ast.DoWhileStmt, seq *[]*core.CSTNode) {
	c := fb.cur
	bodyEntry := fb.headerBlock(c)
	ctx := &loopCtx{header: bodyEntry, triesBase: len(fb.tries),
		headerPhis: fb.addHeaderPhis(bodyEntry, fb.assignedLocals(s.Body, s.Cond))}
	fb.loops = append(fb.loops, ctx)

	bodySeq := []*core.CSTNode{fb.leaf(bodyEntry)}
	fb.resume(bodyEntry, &bodySeq)
	mark := len(fb.scope)
	fb.buildStmt(s.Body, &bodySeq)
	fb.popScope(mark)

	// Latch join: continue edges first (walk-encounter order), then the
	// body fall-through.
	latchSnaps := append([]edgeSnap(nil), ctx.contSnaps...)
	if fb.cur != nil {
		latchSnaps = append(latchSnaps, edgeSnap{fb.cur, fb.snapshotVars()})
	}
	fb.loops = fb.loops[:len(fb.loops)-1]

	if len(latchSnaps) == 0 {
		// The body never reaches the condition: the loop runs at most
		// once and degenerates to its body.
		*seq = append(*seq, fb.seqOf(bodySeq))
		fb.join(ctx.breakSnaps, bodyEntry, seq)
		return
	}

	var latchSeq []*core.CSTNode
	fb.join(latchSnaps, bodyEntry, &latchSeq)
	condV := fb.exprBool(s.Cond)
	condEnd := fb.cur
	condVars := fb.snapshotVars()

	// Back edge.
	fb.closeHeaderPhis(bodyEntry, ctx.headerPhis)

	*seq = append(*seq, fb.node(core.CSTNode{
		Kind: core.CDoWhile, Block: bodyEntry, At: condEnd, Cond: condV,
		Kids: fb.kids(fb.seqOf(bodySeq), fb.seqOf(latchSeq)),
	}))

	fb.join(fb.exitSnaps(condEnd, condVars, ctx), bodyEntry, seq)
}

// inlineFinallies builds the finally blocks of the try contexts from
// fb.tries[base:] (innermost first) into the current path, as performed
// on every break/continue/return that leaves them.
func (fb *fnBuilder) inlineFinallies(base int, seq *[]*core.CSTNode) {
	if fb.inFinally > 0 {
		return
	}
	for i := len(fb.tries) - 1; i >= base; i-- {
		t := fb.tries[i]
		if t.finallyAST == nil || fb.cur == nil {
			continue
		}
		fb.inFinally++
		mark := len(fb.scope)
		fb.buildStmts(t.finallyAST.Stmts, seq)
		fb.popScope(mark)
		fb.inFinally--
	}
}

func (fb *fnBuilder) buildReturn(s *ast.ReturnStmt, seq *[]*core.CSTNode) {
	var v core.ValueID
	if s.X != nil {
		// Evaluate the result before any finally blocks run.
		want := fb.m.Return
		v = fb.exprConv(s.X, want)
	}
	if fb.cur == nil {
		return
	}
	fb.inlineFinallies(0, seq)
	if fb.cur == nil {
		return
	}
	*seq = append(*seq, fb.node(core.CSTNode{Kind: core.CReturn, Val: v, At: fb.cur}))
	fb.setCur(nil)
}

func (fb *fnBuilder) buildBreak(seq *[]*core.CSTNode) {
	ctx := fb.loops[len(fb.loops)-1]
	fb.inlineFinallies(ctx.triesBase, seq)
	if fb.cur == nil {
		return
	}
	ctx.breakSnaps = append(ctx.breakSnaps, edgeSnap{fb.cur, fb.snapshotVars()})
	*seq = append(*seq, fb.node(core.CSTNode{Kind: core.CBreak}))
	fb.setCur(nil)
}

func (fb *fnBuilder) buildContinue(seq *[]*core.CSTNode) {
	ctx := fb.loops[len(fb.loops)-1]
	fb.inlineFinallies(ctx.triesBase, seq)
	if fb.cur == nil {
		return
	}
	// For-loop update code runs on the continue path.
	if len(ctx.postAST) > 0 {
		fb.buildStmts(ctx.postAST, seq)
		if fb.cur == nil {
			return
		}
	}
	if ctx.contToHeader {
		fb.closeHeaderPhis(ctx.header, ctx.headerPhis)
	} else {
		ctx.contSnaps = append(ctx.contSnaps, edgeSnap{fb.cur, fb.snapshotVars()})
	}
	*seq = append(*seq, fb.node(core.CSTNode{Kind: core.CContinue}))
	fb.setCur(nil)
}

// throwValue routes a throw: to the innermost handler when inside a try
// body (with a variable snapshot for the exception phis), otherwise out
// of the function.
func (fb *fnBuilder) throwValue(v core.ValueID, seq *[]*core.CSTNode) {
	tv := fb.adjustRef(v, fb.tt().Throwable)
	node := fb.node(core.CSTNode{Kind: core.CThrow, Val: tv, At: fb.cur})
	if t := fb.routingTry(); t != nil {
		t.sites = append(t.sites, siteSnap{from: fb.cur, vars: fb.snapshotVars()})
	}
	*seq = append(*seq, node)
	fb.setCur(nil)
}

// buildTry lowers a try statement. The protected region — the CTry
// body, the only place whose exception sites belong to this handler — is
// exactly the statements of the try block: a consumer derives the
// exception edges from CST nesting alone, so anything emitted inside the
// body sequence is protected whether the builder meant it or not. The
// finally block of the normal path is therefore built once, after the
// join that follows the CTry node, where the body's and the catch arms'
// normal exits meet; its own exceptions belong to the enclosing try.
func (fb *fnBuilder) buildTry(s *ast.TryStmt, seq *[]*core.CSTNode) {
	c := fb.cur
	entryScope := len(fb.scope)
	scopeAtEntry := append([]*sema.Local(nil), fb.scope...)

	ctx := &tryCtx{finallyAST: s.Finally, routing: true}
	fb.tries = append(fb.tries, ctx)

	bodyEntry := fb.branchBlock(c)
	var bodySeq []*core.CSTNode
	fb.enter(bodyEntry, &bodySeq)
	fb.buildStmts(s.Body.Stmts, &bodySeq)
	fb.popScope(entryScope)
	ctx.routing = false

	// The finally block of the normal path, built once control has left
	// the CTry node.
	normalFinally := func() {
		if fb.cur != nil && s.Finally != nil {
			fb.inFinally++
			fb.buildStmts(s.Finally.Stmts, seq)
			fb.popScope(entryScope)
			fb.inFinally--
		}
	}

	if len(ctx.sites) == 0 {
		// Nothing inside the body can throw: no handler is needed and
		// the body is straight-line code of the enclosing sequence. A
		// block is only ever entered through a control construct, so the
		// body's entry block folds back into its predecessor.
		fb.tries = fb.tries[:len(fb.tries)-1]
		fb.foldBlock(bodyEntry, c, bodySeq)
		*seq = append(*seq, bodySeq[1:]...)
		fb.seq = seq
		normalFinally()
		return
	}

	var snaps []edgeSnap
	if fb.cur != nil {
		snaps = append(snaps, edgeSnap{fb.cur, fb.snapshotVars()})
	}

	// Handler block: exception phis over every potential point of
	// exception, then the caught value and the catch-type dispatch.
	h := fb.newBlock(c)
	h.Preds = fb.b.preds.Take(len(ctx.sites))
	for i, site := range ctx.sites {
		h.Preds[i] = core.Pred{From: site.from, Site: site.site}
	}
	hVars := fb.newSnapshot()
	h.Phis = fb.b.instrVec.Take(len(scopeAtEntry))
	for i, l := range scopeAtEntry {
		args := fb.b.args.Take(len(ctx.sites))
		for k, site := range ctx.sites {
			args[k] = site.vars.get(l)
		}
		h.Phis[i] = fb.newPhi(h, fb.localPlane(l), args)
		hVars[l.Index] = h.Phis[i].ID
	}
	fb.vars = hVars
	handlerSeq := []*core.CSTNode{fb.leaf(h)}
	fb.resume(h, &handlerSeq)
	caught := fb.emit(core.Instr{Op: core.OpCatch, Type: fb.tt().Throwable})

	fb.buildCatchChain(s, 0, caught, &handlerSeq)
	if fb.cur != nil {
		snaps = append(snaps, edgeSnap{fb.cur, fb.snapshotVars()})
	}
	fb.tries = fb.tries[:len(fb.tries)-1]

	*seq = append(*seq, fb.node(core.CSTNode{
		Kind: core.CTry, Handler: h,
		Kids: fb.kids(fb.seqOf(bodySeq), fb.seqOf(handlerSeq)),
	}))
	fb.join(snaps, c, seq)
	normalFinally()
}

// foldBlock merges dead — a block entered by one edge from into, whose
// leaf heads nodes — back into that predecessor: its code moves over and
// every reference the builder has made to it since (dominator links,
// edges, CST reference points, pending loop exits, the current block) is
// redirected.
func (fb *fnBuilder) foldBlock(dead, into *core.Block, nodes []*core.CSTNode) {
	swap := func(b **core.Block) {
		if *b == dead {
			*b = into
		}
	}
	// Every block gets its code before any is moved; the current one
	// (into itself, when the body was straight-line) is resumed after.
	cur := fb.cur
	fb.setCur(nil)
	for _, in := range dead.Code {
		in.Blk = into
	}
	into.Code = append(into.Code, dead.Code...)
	live := fb.f.Blocks[:0]
	for _, b := range fb.f.Blocks {
		if b == dead {
			continue
		}
		swap(&b.IDom)
		for i := range b.Preds {
			swap(&b.Preds[i].From)
		}
		live = append(live, b)
	}
	fb.f.Blocks = live
	for _, l := range fb.loops {
		for i := range l.breakSnaps {
			swap(&l.breakSnaps[i].from)
		}
		for i := range l.contSnaps {
			swap(&l.contSnaps[i].from)
		}
	}
	var walk func(n *core.CSTNode)
	walk = func(n *core.CSTNode) {
		swap(&n.At)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
	swap(&cur)
	fb.setCur(cur)
}

// buildCatchChain lowers the catch clauses into an instanceof dispatch
// chain; the final arm inlines the finally block and rethrows, giving
// the "default, possibly empty, catch block" of section 7. A catch arm
// that completes normally leaves the finally block to buildTry.
func (fb *fnBuilder) buildCatchChain(s *ast.TryStmt, i int, caught core.ValueID, seq *[]*core.CSTNode) {
	tt := fb.tt()
	if i == len(s.Catches) {
		if s.Finally != nil {
			fb.inFinally++
			mark := len(fb.scope)
			fb.buildStmts(s.Finally.Stmts, seq)
			fb.popScope(mark)
			fb.inFinally--
		}
		if fb.cur != nil {
			fb.throwValue(caught, seq)
		}
		return
	}
	cc := s.Catches[i]
	ccLocal := fb.b.prog.CatchLocal[cc]
	declType := fb.b.typeOf(ccLocal.Type)

	condV := fb.emit(core.Instr{
		Op: core.OpInstanceOf, Type: tt.Boolean,
		ArgType: tt.Throwable, TypeArg: declType,
		Args: fb.vals(caught),
	})
	c := fb.cur
	node := fb.node(core.CSTNode{Kind: core.CIf, At: c, Cond: condV})
	entryVars := fb.snapshotVars()

	var armSeq []*core.CSTNode
	fb.enter(fb.branchBlock(c), &armSeq)
	bind := fb.emit(core.Instr{
		Op: core.OpUpcast, Type: declType,
		ArgType: tt.Throwable, TypeArg: declType,
		Args: fb.vals(caught),
	})
	mark := len(fb.scope)
	fb.set(ccLocal, bind)
	fb.scope = append(fb.scope, ccLocal)
	fb.buildStmts(cc.Body.Stmts, &armSeq)
	fb.popScope(mark)

	var edges [2]edgeSnap
	snaps := edges[:0]
	if fb.cur != nil {
		snaps = append(snaps, edgeSnap{fb.cur, fb.vars})
	}

	fb.vars = entryVars
	var elseSeq []*core.CSTNode
	fb.enter(fb.branchBlock(c), &elseSeq)
	fb.buildCatchChain(s, i+1, caught, &elseSeq)
	if fb.cur != nil {
		snaps = append(snaps, edgeSnap{fb.cur, fb.vars})
	}
	node.Kids = fb.kids(fb.seqOf(armSeq), fb.seqOf(elseSeq))

	*seq = append(*seq, node)
	fb.join(snaps, c, seq)
}
