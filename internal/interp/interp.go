// Package interp is the SafeTSA code consumer: it loads a SafeTSA module
// (typically freshly decoded from the wire format), builds the runtime
// class metadata, runs static initializers, and executes function bodies.
//
// There is one production engine, the compiled form (compile.go): records
// of the register-machine lowering (prepare.go); a server runs nothing
// else, whether the unit arrived whole (LoadTrustedCompiled, -Deferred)
// or is still arriving (LoadTrustedStreaming); either way a function is
// lowered when a guest first calls it. The other two evaluators are oracles:
// the reference walker in this file and instr.go, a small-step machine
// that executes the Control Structure Tree and the type-separated SSA
// instructions as they stand and is the meaning the lowered forms are
// tested against, and the prepared register machine (prepared.go). Every
// engine returns a guest exception from the activation it leaves, and
// Loader.call makes one that leaves the outermost frame the session's
// error; only a kill or a lowering refusal unwinds guest frames by panic,
// to catchTopLevel.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// Loader holds a loaded module and its runtime metadata.
type Loader struct {
	Mod *core.Module
	Env *rt.Env

	// classes is the session's class table, indexed by TypeID (nil for a
	// type that is not a class).
	classes []*rt.ClassInfo
	exc     rt.ExcClasses
	// prep, when non-nil, switches the session to the prepared register
	// machine: every function body (static initializers included) runs
	// through runPrepared instead of the reference CST walker.
	prep *Prepared
	// comp, when non-nil, switches the session to the compiled engine; it
	// takes precedence over prep.
	comp *Compiled
	// lowered is what this session has spent filling comp's slots.
	lowered Lowering
	// stack is the compiled engine's activations, from the session's
	// first call to Release; a Loader is one goroutine's, so it is unlocked.
	stack *stack
	// released is set by Release, after which the session refuses to run.
	released bool
	// walks holds the reference walker's side table per function index,
	// built on the function's first call in the session (nil: not yet).
	walks []*walk
}

// LoadTrusted prepares an already-verified module for execution, skipping
// the structural verifier but still running the link checks and the
// static initializers. It is the entry point for loader caches that
// verify a decoded module once and then start many execution sessions
// from it.
//
// Shared-module invariant: the evaluator treats mod as strictly read-only
// — all mutable execution state (SSA value slots, operand stacks, static
// field storage, the heap) lives in the per-session Loader/frame/rt.Env.
// A single *core.Module may therefore back any number of concurrent
// LoadTrusted sessions, provided each session gets its own rt.Env and no
// one mutates the module (e.g. runs opt.Optimize on it) after it is
// shared.
func LoadTrusted(mod *core.Module, env *rt.Env) (*Loader, error) {
	return newLoader(&Loader{Mod: mod, Env: env}, true)
}

// LoadTrustedStreaming prepares a module whose function bodies are
// still arriving through a cursor (wire.DecodeVerifiedStream).
// The symbol tables must be complete and statically verified — the
// streaming decoder guarantees both — while Mod.Funcs grows under the
// session's own calls: gate(i) returns nil once function i is admitted and
// stands in Mod.Funcs, decoding up to it on this goroutine if it must, or
// returns the stream's terminal error.
//
// The session runs on the compiled engine, over a PulledIn form of its
// own, sized by the function count the admitted tables give
// (core.Module.NumBodies), whose pull is the gate: a function is callable
// once admitted and lowered, and both happen in one step, the first time
// the guest calls it (Loader.lower). So execution proceeds exactly as far
// as verified code exists, only what the guest calls is lowered, and a
// mid-stream failure — the gate's error, or a function lowering refuses,
// which satisfies errors.Is(err, errors.ErrUnsupported) — aborts the run
// and is the error the session ends with.
func LoadTrustedStreaming(mod *core.Module, gate func(fi int) error, env *rt.Env) (*Loader, error) {
	pull := func(fi int) (*core.Func, error) {
		if err := gate(fi); err != nil {
			return nil, err
		}
		return mod.Funcs[fi], nil
	}
	return LoadTrustedCompiled(mod, PulledIn(mod, mod.NumBodies(), pull, nil), env)
}

// LoadTrustedPrepared is LoadTrusted for a session that executes the
// prepared form on the register machine. prep must be the form Prepare
// minted from this exact module; like the module, it is read-only and
// may back any number of concurrent sessions.
func LoadTrustedPrepared(mod *core.Module, prep *Prepared, env *rt.Env) (*Loader, error) {
	if err := bound(mod, "prepared", prep.from()); err != nil {
		return nil, err
	}
	return newLoader(&Loader{Mod: mod, Env: env, prep: prep}, true)
}

// LoadTrustedCompiled is LoadTrusted for a session that executes the
// compiled form. comp must be the form Compile or Lazy minted
// from this exact module; like the module, it may back any number of
// concurrent sessions.
func LoadTrustedCompiled(mod *core.Module, comp *Compiled, env *rt.Env) (*Loader, error) {
	if err := bound(mod, "compiled", comp.from()); err != nil {
		return nil, err
	}
	return newLoader(&Loader{Mod: mod, Env: env, comp: comp}, true)
}

// LoadTrustedDeferred leaves static initialization to the caller
// (RunStaticInit): the session exists but has executed no guest code —
// the warm-pool build path. A nil form means "not this engine"; both nil
// selects the reference CST walker, and comp takes precedence over prep.
func LoadTrustedDeferred(mod *core.Module, prep *Prepared, comp *Compiled, env *rt.Env) (*Loader, error) {
	if prep != nil {
		if err := bound(mod, "prepared", prep.from()); err != nil {
			return nil, err
		}
	}
	if comp != nil {
		if err := bound(mod, "compiled", comp.from()); err != nil {
			return nil, err
		}
	}
	return newLoader(&Loader{Mod: mod, Env: env, prep: prep, comp: comp}, false)
}

// newLoader is the one session constructor behind every Load* name. l
// arrives holding what the entry point decided — module, environment,
// engine binding (prep/comp) — and newLoader completes it: runtime class
// metadata, then — when init is set — the static initializers, the first
// guest code the session runs. It reads the module's tables and never its
// function list, which a PulledIn form's cursor may be appending to. It
// checks no import: admission bound every imported method to the host
// operation of its signature (core.Module.DeriveTables). A session whose
// static initializers fail is returned with their error: it has run guest
// code, and its caller may still read what that left (its heap, what it
// spent lowering).
func newLoader(l *Loader, init bool) (*Loader, error) {
	mod := l.Mod
	tt := mod.Types
	l.classes = make([]*rt.ClassInfo, len(tt.ByID))
	class := func(id core.TypeID) *rt.ClassInfo {
		if uint(id) < uint(len(l.classes)) {
			return l.classes[id]
		}
		return nil
	}

	// Imported class hierarchy.
	mk := func(id core.TypeID, slots int) *rt.ClassInfo {
		t := tt.MustGet(id)
		ci := &rt.ClassInfo{Name: t.Name, NumSlots: slots, TypeID: int32(id)}
		if t.Super != core.NoType {
			ci.Super = class(t.Super)
		}
		l.classes[id] = ci
		return ci
	}
	mk(tt.Object, 0)
	mk(tt.String, 0)
	l.exc.Throwable = mk(tt.Throwable, 1)
	l.exc.Exception = mk(tt.Exception, 1)
	l.exc.NPE = mk(tt.NPE, 1)
	l.exc.Arith = mk(tt.Arith, 1)
	l.exc.Bounds = mk(tt.Bounds, 1)
	l.exc.Cast = mk(tt.Cast, 1)
	l.exc.NegSize = mk(tt.NegSize, 1)

	// User classes (Module.Classes is in superclass-first order).
	for _, cd := range mod.Classes {
		t := tt.MustGet(cd.Type)
		ci := &rt.ClassInfo{
			Name:     t.Name,
			Super:    class(cd.Super),
			NumSlots: int(cd.NumSlots),
			VTable:   cd.VTable,
			TypeID:   int32(cd.Type),
			Statics:  make([]rt.Value, cd.NumStatics),
		}
		if ci.Super == nil {
			return nil, fmt.Errorf("interp: class %s has unknown superclass", t.Name)
		}
		l.classes[cd.Type] = ci
	}

	if init {
		return l, l.RunStaticInit()
	}
	return l, nil
}

// RunStaticInit executes the static initializers in class order on the
// session's engine, and stops at the first that fails. The Load* entry
// points run it inside newLoader; sessions built with
// LoadTrustedDeferred (the warm-pool build path) call it exactly once
// themselves, before either RunMain or Snapshot.
func (l *Loader) RunStaticInit() (err error) {
	if l.released {
		return errReleased
	}
	defer l.catchTopLevel(&err)
	for _, fi := range l.Mod.StaticInit {
		if fi >= 0 {
			if _, err = l.call(fi, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// call invokes function index fi on the session's engine. Every engine
// returns a guest exception from the activation it leaves; one that
// leaves the outermost frame is the session's error, worded here alike
// for all of them.
func (l *Loader) call(fi int32, args []rt.Value) (rt.Value, error) {
	var v rt.Value
	var thrown bool
	switch {
	case l.comp != nil:
		if l.stack == nil {
			l.stack = stacks.Take()
		}
		// Host arguments go on the stack too, so a grow moves every window.
		copy(l.stack.push(len(args)), args)
		v, thrown = l.runCompiled(l.cfunc(fi), len(args))
		l.stack.pop(l.stack.top - len(args))
	case l.prep != nil:
		v, thrown = l.runPrepared(l.prep.Funcs[fi], args)
	default:
		v, thrown = l.callFunc(fi, args)
	}
	if thrown {
		return rt.Value{}, fmt.Errorf("uncaught exception: %s", l.describeExc(v))
	}
	return v, nil
}

// cfunc is the compiled body of function fi, the one read of comp's
// slots. Once any session has called fi the slot holds its body, so a
// session over a resident form pays the load and the test and nothing
// else.
func (l *Loader) cfunc(fi int32) *CFunc {
	if cf := l.comp.funcs[fi].Load(); cf != nil {
		return cf
	}
	return l.lower(fi)
}

// lowerers recycles what lowering one function needs and nothing keeps —
// above all the emission buffer, as large as the largest function lowered
// through it, which every session would otherwise allocate again. A
// lowerer holds the lowering of one body of a unit, so it is kept under
// the unit arenas' cap.
var lowerers = core.NewStock("interp.lowerers", core.MaxUnitArenaBytes, func() *fcomp {
	return &fcomp{handlers: make(map[*core.Block]int32)}
})

// lowerAbort unwinds guest execution when a session cannot make a
// function callable; catchTopLevel converts it to the error.
type lowerAbort struct{ err error }

// lower makes function fi callable the first time this session calls it,
// under the form's lock: unless another session filled the slot while
// this one waited, the form hands over the body — pulling it through its
// cursor first when it has one (PulledIn, LoadTrustedStreaming) — then
// lowerBody lowers it into the form's code memory, and the body is
// published into its slot. So each function of a form is lowered once,
// however many sessions race to call it first, and the memory the form's
// code is carved from has one writer at a time. Failing either step ends
// the run: no engine recovers a lowerAbort, so it passes every guest
// handler on its way to catchTopLevel.
func (l *Loader) lower(fi int32) *CFunc {
	c := l.comp
	c.mu.Lock()
	defer c.mu.Unlock()
	if cf := c.funcs[fi].Load(); cf != nil {
		return cf
	}
	f, err := c.body(fi)
	var cf *CFunc
	if err == nil {
		cf, err = l.lowerBody(fi, f)
	}
	if err != nil {
		panic(lowerAbort{err})
	}
	c.funcs[fi].Store(cf)
	return cf
}

// lowerBody lowers admitted body f of function fi into the form's code
// memory, booking what it spent to the session. A refusal satisfies
// errors.Is(err, errors.ErrUnsupported). The caller holds the form's lock.
func (l *Loader) lowerBody(fi int32, f *core.Func) (*CFunc, error) {
	c := lowerers.Take()
	c.mod, c.nFuncs = l.Mod, len(l.comp.funcs)
	cf, err := c.lowerFunc(f, &l.lowered, l.comp.mem)
	lowerers.Give(c)
	if err != nil {
		return nil, fmt.Errorf("%w: admitted function %d does not lower: %w", errors.ErrUnsupported, fi, err)
	}
	return cf, nil
}

// Lowering is what a session spent making functions callable: how many
// it lowered, and the host time of each half of that lowering —
// flattening into the prepared form, then encoding it as records.
type Lowering struct {
	Funcs         int
	Flatten, Fuse time.Duration
}

// Lowered reports what this session has spent lowering so far. A session
// over a form every function of which some session already lowered
// reports nothing.
func (l *Loader) Lowered() Lowering { return l.lowered }

// errReleased is what a released session answers every request to run.
var errReleased = errors.New("interp: session released")

// Release ends the session: the chunks its heap was carved from
// (rt.Env.Release) and the compiled engine's stack go to process-wide
// stocks, cleared, for the next session to take, and
// the session refuses to run or snapshot again. Its static fields are
// cleared, so nothing left of the session — HeapChecksum included —
// reaches a recycled chunk. Nothing the session allocated may be
// reachable afterwards from anything that outlives it, so the caller is
// the one that turned the run into plain data — codeserver's
// session.finish, after the RunResult is built. A session nobody releases
// (an oracle's, a CLI's) is simply dropped, and its memory is ordinary
// garbage.
func (l *Loader) Release() {
	if l.released {
		return
	}
	l.released = true
	for _, ci := range l.classes {
		if ci != nil {
			clear(ci.Statics)
		}
	}
	if l.stack != nil {
		stacks.Give(l.stack)
		l.stack = nil
	}
	l.Env.Release()
}

// catchTopLevel converts a kill, or a lowering refusal (lowerAbort), into
// the session's error: the only two things that unwind guest frames by
// panic. A host entry point is never re-entered from guest code, so
// whatever frames the panic left live are dead: the slot count restarts
// from zero, the compiled engine's stack is emptied, and the session can
// take another CallStatic.
func (l *Loader) catchTopLevel(err *error) {
	r := recover()
	if r != nil {
		l.Env.Unwind()
		if s := l.stack; s != nil {
			s.depth = 0
			s.pop(0)
		}
	}
	switch t := r.(type) {
	case nil:
	case lowerAbort:
		*err = t.err
	case error:
		if rt.IsExecError(t) {
			*err = t
			return
		}
		panic(r)
	default:
		panic(r)
	}
}

func (l *Loader) describeExc(v rt.Value) string {
	o, ok := v.R.(*rt.Object)
	if !ok {
		return rt.RefString(v.R)
	}
	msg := ""
	if len(o.Fields) > 0 {
		if s, ok := rt.GetStr(o.Fields[0].R); ok {
			msg = ": " + s
		}
	}
	return o.Class.Name + msg
}

// RunMain executes the module entry point.
func (l *Loader) RunMain() (err error) {
	if l.released {
		return errReleased
	}
	if l.Mod.Entry < 0 {
		return fmt.Errorf("interp: module has no main method")
	}
	// The tables say all that is needed of the entry (static, by
	// DeriveTables); its body may not have arrived yet.
	mr := &l.Mod.Methods[l.Mod.Entry]
	if mr.FuncIdx < 0 {
		return fmt.Errorf("interp: entry method has no body")
	}
	args := make([]rt.Value, len(mr.Params)) // String[] args arrives null
	defer l.catchTopLevel(&err)
	_, err = l.call(mr.FuncIdx, args)
	return err
}

// CallStatic invokes a static method by class and name (for tests and
// examples).
func (l *Loader) CallStatic(class, name string, args ...rt.Value) (out rt.Value, err error) {
	if l.released {
		return rt.Value{}, errReleased
	}
	for _, mr := range l.Mod.Methods {
		owner := l.Mod.Types.MustGet(mr.Owner)
		if mr.Static && owner.Name == class && mr.Name == name && mr.FuncIdx >= 0 {
			defer l.catchTopLevel(&err)
			return l.call(mr.FuncIdx, args)
		}
	}
	return rt.Value{}, fmt.Errorf("interp: no static method %s.%s", class, name)
}

// ---------------------------------------------------------------------
// The reference walker: a small-step machine over the CST
//
// The machine's state is a position in the tree, (node, enter|exit), and
// the frame. Entering a node starts it; exiting it hands control to its
// parent, which decides from its kind and from which kid finished what
// runs next — the control context is read off the function's side table
// (walk), not kept per activation, so an activation costs the host the
// same whatever the nesting of its body. A raise is a value: it stops
// the block that raised and moves the position to the handler of the
// try whose entry block the site names, or, with no handler, ends the
// activation, which returns the exception with thrown set.

type frame struct {
	f    *core.Func
	vals []rt.Value
	args []rt.Value
	// prev is the most recently executed block, used to resolve the
	// incoming edge of phi evaluation.
	prev *core.Block
	// enterEdge, when >= 0, overrides edge resolution for the next
	// block (exception-handler entry).
	enterEdge int
	caught    rt.Value
	// raised is set by a raise and cleared when the machine takes it to
	// handler (nil: out of the activation), with caught the exception and
	// enterEdge its edge into handler.
	raised  bool
	handler *core.Block
	// guard is the innermost handler of the block being run, which its
	// sites raise into (nil: none).
	guard *core.Block
}

// walk is the side table the walker steps one function's body by: the
// CST in preorder — a node's first kid is the entry after it, a kid's
// next sibling the entry its subtree ends at — with each node's parent
// and its index there and its innermost handler, and the try of each
// handler entry block. It is linear in the body, which was admitted
// whole, and built on the function's first call in a session, as a
// lowered form is: a call costs nothing of it.
type walk struct {
	nodes []wnode
	tries map[*core.Block]int32
}

type wnode struct {
	n *core.CSTNode // nil for an absent kid
	// parent is the parent's entry (the root is its own parent) and kid
	// this node's index in its Kids.
	parent, kid int32
	// next is the entry after this node's subtree.
	next int32
	// body is the body kid of the innermost loop whose break and continue
	// this node is under; the root when there is none, so that a break or
	// continue no loop encloses (which no decoder admits) ends the
	// activation as falling off the body does.
	body int32
	// handler is the handler of the innermost try whose body holds this
	// node: the one its exception sites raise into (nil: none).
	handler *core.Block
}

// add appends n's subtree in preorder, under handler h. It recurses once
// per level, as the lowering does, over a tree the format bounds
// (core.MaxCSTDepth).
func (w *walk) add(n *core.CSTNode, parent, kid, body int32, h *core.Block) {
	at := int32(len(w.nodes))
	w.nodes = append(w.nodes, wnode{n: n, parent: parent, kid: kid, body: body, handler: h})
	if n != nil {
		if n.Kind == core.CTry {
			w.tries[n.Handler] = at
		}
		for k, c := range n.Kids {
			in := body
			if n.Kind == core.CWhile && k == 1 || n.Kind == core.CDoWhile && k == 0 {
				in = int32(len(w.nodes)) // the loop's body is the next entry
			}
			kh := h
			if n.Kind == core.CTry && k == 0 {
				kh = n.Handler
			}
			w.add(c, at, int32(k), in, kh)
		}
	}
	w.nodes[at].next = int32(len(w.nodes))
}

// callFunc runs one activation of function fi on the walker: its result,
// or, thrown set, the exception that left it.
func (l *Loader) callFunc(fi int32, args []rt.Value) (rt.Value, bool) {
	f := l.Mod.Funcs[fi]
	if l.walks == nil {
		l.walks = make([]*walk, len(l.Mod.Funcs))
	}
	w := l.walks[fi]
	if w == nil {
		w = &walk{tries: make(map[*core.Block]int32)}
		w.add(f.Body, 0, 0, 0, nil)
		l.walks[fi] = w
	}
	slots := rt.FrameSlots(f.NumValues() + 1)
	l.Env.Enter(slots)
	fr := &frame{
		f:         f,
		vals:      make([]rt.Value, f.NumValues()+1),
		args:      args,
		enterEdge: -1,
	}
	v, thrown := l.run(fr, w)
	l.Env.Leave(slots)
	return v, thrown
}

func (fr *frame) val(id core.ValueID) rt.Value {
	return fr.vals[id]
}

// run steps fr's activation from entering its body until it returns or
// an exception leaves it.
func (l *Loader) run(fr *frame, w *walk) (rt.Value, bool) {
	at, exit := int32(0), false
	for {
		e := &w.nodes[at]
		if exit {
			if at == 0 {
				return rt.Value{}, false // the body finished: a void return
			}
			// Exit: the parent decides by which kid finished, and exits in
			// turn unless it runs another.
			at, exit = l.exit(fr, w.nodes[e.parent].n, e)
			continue
		}
		n := e.n
		if exit = true; n == nil {
			continue
		}
		switch n.Kind {
		case core.CSeq:
			if len(n.Kids) > 0 {
				at, exit = at+1, false
			}
		case core.CBlock:
			fr.guard = e.handler
			l.execBlock(fr, n.Block)
		case core.CIf:
			if fr.val(n.Cond).Bool() {
				at, exit = at+1, false
			} else if len(n.Kids) > 1 {
				at, exit = w.nodes[at+1].next, false
			}
		case core.CWhile, core.CDoWhile:
			// Charge one step per iteration so a loop whose blocks carry
			// no instructions (e.g. `while (true) { }` with a hoisted
			// condition) still consumes step budget and stays
			// interruptible.
			l.Env.Step()
			at, exit = at+1, false
		case core.CReturn:
			// A void return reads register 0 (NoValue), which nothing
			// writes.
			return fr.val(n.Val), false
		case core.CBreak:
			at = w.nodes[e.body].parent // exit the loop
		case core.CContinue:
			at = e.body // as if the loop's body finished
		case core.CThrow:
			v := fr.val(n.Val)
			if v.R == nil {
				v = l.newExc(l.exc.NPE, "throw of null")
			}
			fr.raise(e.handler, core.Pred{From: n.At}, v)
		case core.CTry:
			at, exit = at+1, false
		default:
			panic(fmt.Sprintf("interp: unhandled CST node %v", n.Kind))
		}
		if fr.raised {
			if fr.handler == nil {
				return fr.caught, true
			}
			fr.raised = false
			// Enter the handler kid of the try whose entry block it names.
			at, exit = w.nodes[w.tries[fr.handler]+1].next, false
		}
	}
}

// exit is the transition out of e, a kid of p: the entry to enter next,
// or, exit set, p itself to exit.
func (l *Loader) exit(fr *frame, p *core.CSTNode, e *wnode) (int32, bool) {
	switch p.Kind {
	case core.CSeq:
		if int(e.kid)+1 < len(p.Kids) {
			return e.next, false
		}
	case core.CWhile:
		if e.kid == 1 { // the body: the next iteration
			l.Env.Step()
			return e.parent + 1, false
		}
		if fr.val(p.Cond).Bool() { // the header: the body, if the condition holds
			return e.next, false
		}
	case core.CDoWhile:
		if e.kid == 0 { // the body: the latch
			return e.next, false
		}
		if fr.val(p.Cond).Bool() { // the latch: the next iteration, if the condition holds
			l.Env.Step()
			return e.parent + 1, false
		}
	}
	// A sequence's last kid, an arm of an if, a try's body or its handler,
	// a loop whose condition failed.
	return e.parent, true
}

// raise raises v along exception edge e into handler (nil: out of the
// activation), which is the edge at e's position among the handler's. What
// raised stops there; the machine takes it on from the node that ran it.
func (fr *frame) raise(handler *core.Block, e core.Pred, v rt.Value) {
	fr.raised, fr.handler, fr.enterEdge, fr.caught = true, handler, -1, v
	if handler != nil {
		fr.enterEdge = slices.Index(handler.Preds, e)
	}
}

// raiseAt raises v from instruction site in, into the handler of the block
// being run.
func (fr *frame) raiseAt(in *core.Instr, v rt.Value) {
	fr.raise(fr.guard, core.Pred{From: in.Blk, Site: in}, v)
}

func (l *Loader) newExc(c *rt.ClassInfo, msg string) rt.Value {
	o := l.Env.NewObject(c)
	o.Fields[0] = rt.RefValue(l.Env.Str(msg))
	return rt.RefValue(o)
}

// The exceptions of the checks that format their message, for every
// engine of this package (rt words the messages, for the bytecode VM
// too). Out of line, they keep the formatting off the interpreters' host
// frames, which every activation pays for, and out of the compiled
// engine's handlers.

func (l *Loader) boundsExc(idx int32, n int) rt.Value {
	return l.newExc(l.exc.Bounds, l.Env.IndexMessage(idx, n))
}

func (l *Loader) castExc(t core.TypeID) rt.Value {
	return l.newExc(l.exc.Cast, "cannot cast to "+l.Mod.Types.Describe(t))
}

func (l *Loader) negSizeExc(n int32) rt.Value {
	return l.newExc(l.exc.NegSize, rt.NegativeSizeMessage(n))
}

// execBlock evaluates a block: phis in parallel against the incoming
// edge, then the straightline code, up to an instruction that raises.
func (l *Loader) execBlock(fr *frame, b *core.Block) {
	if len(b.Phis) > 0 {
		edge := fr.enterEdge
		if edge < 0 {
			edge = -1
			for i, p := range b.Preds {
				if p.From == fr.prev && p.Site == nil {
					edge = i
					break
				}
			}
			if edge < 0 {
				panic(fmt.Sprintf("interp: %s: no edge from block %d into block %d",
					l.Mod.FuncName(fr.f), fr.prev.Index, b.Index))
			}
		}
		// Parallel phi semantics: read all operands, then write.
		tmp := make([]rt.Value, len(b.Phis))
		for i, phi := range b.Phis {
			tmp[i] = fr.val(phi.Args[edge])
		}
		for i, phi := range b.Phis {
			fr.vals[phi.ID] = tmp[i]
		}
	}
	fr.enterEdge = -1
	for _, in := range b.Code {
		l.Env.Step()
		if l.execInstr(fr, in); fr.raised {
			return
		}
	}
	fr.prev = b
}
