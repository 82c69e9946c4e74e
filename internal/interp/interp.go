// Package interp is the SafeTSA code consumer: it loads a SafeTSA module
// (typically freshly decoded from the wire format), builds the runtime
// class metadata, runs static initializers, and executes function bodies.
//
// There is one production engine, the closure-threaded form (compile.go)
// of the register-machine lowering (prepare.go); a server runs nothing
// else, whether the unit arrived whole (LoadTrustedCompiled, -Deferred)
// or is still arriving (LoadTrustedStreaming, which lowers a function
// when the guest first calls it). The other two evaluators are oracles:
// the reference walker in this file and instr.go, which executes the
// Control Structure Tree and the type-separated SSA instructions as they
// stand and is the meaning the lowered forms are tested against, and the
// prepared register machine (prepared.go).
package interp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/lang/sema"
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
	// comp, when non-nil, switches the session to the closure-threaded
	// compiled engine; it takes precedence over prep.
	comp *Compiled
	// lowered is what this session has spent filling comp's slots.
	lowered Lowering
	// cfree and afree are the compiled engine's per-session free lists
	// for invocation frames and call-argument buffers (see getFrame in
	// compile.go). A Loader is single-session, single-goroutine state, so
	// the lists need no locking.
	cfree []*cframe
	afree [][]rt.Value
	// frames caches frameSlots per function index for the reference
	// walker, which has no lowered form to keep it in (0: not yet asked).
	frames []int64
	// gate, when non-nil, marks a streaming session: comp is private to
	// it and grows with what the stream has delivered, and gate(i) admits
	// function i before its first call lowers it. See LoadTrustedStreaming.
	gate func(fi int) error
}

// Load verifies the module and prepares it for execution (class metadata
// and static initializers).
func Load(mod *core.Module, env *rt.Env) (*Loader, error) {
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return nil, fmt.Errorf("interp: module rejected by verifier: %w", err)
	}
	return LoadTrusted(mod, env)
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
// still arriving (wire.DecodeVerifiedStream). The symbol tables must be
// complete and statically verified — the streaming decoder guarantees
// both — while Mod.Funcs grows under the session's own calls: gate(i)
// returns nil once function i is admitted and stands in Mod.Funcs,
// decoding up to it on this goroutine if it must, or returns the
// stream's terminal error.
//
// The session runs on the compiled engine, over a lowered form of its
// own that starts empty and grows as Mod.Funcs does. A function is
// callable once admitted and lowered, and both happen in one step, the
// first time the guest calls it (Loader.lower): gate(i), then the
// first-call lowering every session of a Lazy form runs. So execution
// proceeds exactly as far as verified code exists, only what the guest
// calls is lowered, and a mid-stream failure — the gate's error, or a
// function lowering refuses, which satisfies errors.Is(err,
// errors.ErrUnsupported) — aborts the run and is the error the session
// ends with. The form is never complete and never shared: such a session
// cannot be snapshotted.
func LoadTrustedStreaming(mod *core.Module, gate func(fi int) error, env *rt.Env) (*Loader, error) {
	return newLoader(&Loader{Mod: mod, Env: env, comp: Lazy(mod), gate: gate}, true)
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
// closure-threaded form. comp must be the form Compile or Lazy minted
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
// engine binding (prep/comp/gate) — and newLoader completes it: link
// checks, runtime class metadata, then — when init is set — the static
// initializers, the first guest code the session runs. A session whose
// static initializers fail is returned with their error: it has run guest
// code, and its caller may still read what that left (its heap, what it
// spent lowering).
func newLoader(l *Loader, init bool) (*Loader, error) {
	mod := l.Mod
	// Every host-implemented method must map to a builtin this consumer
	// actually provides; a module referencing an unknown import is
	// rejected at link time.
	for i := range mod.Methods {
		mr := &mod.Methods[i]
		if mr.FuncIdx >= 0 || mr.IsCtor {
			continue
		}
		arity, ok := builtinArity[sema.BuiltinID(mr.Builtin)]
		if !ok {
			return nil, fmt.Errorf("interp: method %s imports unknown host operation %d",
				mr.Name, mr.Builtin)
		}
		have := len(mr.Params)
		if !mr.Static {
			have++
		}
		if have != arity {
			return nil, fmt.Errorf("interp: method %s does not match the host operation's arity",
				mr.Name)
		}
	}
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

	if l.comp == nil && l.prep == nil {
		l.frames = make([]int64, len(mod.Funcs))
	}
	if init {
		return l, l.RunStaticInit()
	}
	return l, nil
}

// RunStaticInit executes the static initializers in class order on the
// session's engine. The Load* entry points run it inside newLoader;
// sessions built with LoadTrustedDeferred (the warm-pool build path)
// call it exactly once themselves, before either RunMain or Snapshot.
func (l *Loader) RunStaticInit() error {
	var err error
	func() {
		defer l.catchTopLevel(&err)
		for _, fi := range l.Mod.StaticInit {
			if fi >= 0 {
				l.call(fi, nil)
			}
		}
	}()
	return err
}

// call invokes function index fi on the session's engine.
func (l *Loader) call(fi int32, args []rt.Value) rt.Value {
	if l.comp != nil {
		// The compiled engine unwinds by return; an exception that left
		// its outermost frame joins the oracle engines' carrier here, so
		// catchTopLevel words every engine's uncaught exception alike.
		v, thrown := l.runCompiled(l.cfunc(fi), args)
		if thrown {
			l.Env.Throw(rt.Thrown{Val: v})
		}
		return v
	}
	if l.prep != nil {
		return l.runPrepared(l.prep.Funcs[fi], args)
	}
	return l.callFunc(fi, args)
}

// cfunc is the compiled body of function fi, the one read of comp's
// slots. Once any session has called fi the slot holds its body, so a
// session over a resident form pays the load and the test and nothing
// else.
func (l *Loader) cfunc(fi int32) *CFunc {
	if funcs := l.comp.funcs; int(fi) < len(funcs) {
		if cf := funcs[fi].Load(); cf != nil {
			return cf
		}
	}
	return l.lower(fi)
}

// lowerers recycles what lowering one function needs and nothing keeps —
// above all the emission buffer, as large as the largest function lowered
// through it, which every session would otherwise allocate again.
var lowerers = sync.Pool{New: func() any { return &fcomp{handlers: make(map[*core.Block]int32)} }}

// lowerAbort unwinds guest execution when a session cannot make a
// function callable; catchTopLevel converts it to the error.
type lowerAbort struct{ err error }

// lower makes function fi callable the first time this session calls it:
// on a streaming session the gate has the stream admit it first; then
// fcomp.lowerFunc lowers it, and the body is published into its slot with
// a compare-and-swap. Sessions of one shared form that race on a first
// call may each lower the function, and each returns the body that won:
// lowering is deterministic and charges no guest budget, so a loser's
// body is the winner's in every respect the guest can observe, and what
// it wasted is host time, which Lowered still counts. Failing either step
// ends the run: no engine recovers a lowerAbort, so it passes every guest
// handler on its way to catchTopLevel.
func (l *Loader) lower(fi int32) *CFunc {
	nFuncs := len(l.Mod.Funcs)
	var err error
	if l.gate != nil {
		// The gate, not the lowering, is what range-checks a function index
		// here: how many functions there will be is only declared so far.
		nFuncs = math.MaxInt32
		// A slot per function that has arrived: like Mod.Funcs, the form is
		// sized by what the stream delivered, never by what it declares.
		if err = l.gate(int(fi)); err == nil && len(l.Mod.Funcs) > len(l.comp.funcs) {
			l.comp.funcs = append(l.comp.funcs, make([]atomic.Pointer[CFunc], len(l.Mod.Funcs)-len(l.comp.funcs))...)
		}
	}
	var cf *CFunc
	if err == nil {
		c := lowerers.Get().(*fcomp)
		c.mod, c.nFuncs = l.Mod, nFuncs
		if cf, err = c.lowerFunc(l.Mod.Funcs[fi], &l.lowered); err != nil {
			err = fmt.Errorf("%w: admitted function %d does not lower: %w", errors.ErrUnsupported, fi, err)
		}
		lowerers.Put(c)
	}
	if err != nil {
		panic(lowerAbort{err})
	}
	if slot := &l.comp.funcs[fi]; !slot.CompareAndSwap(nil, cf) {
		cf = slot.Load()
	}
	return cf
}

// Lowering is what a session spent making functions callable: how many
// it lowered, and the host time of each half of that lowering —
// flattening into the prepared form, then fusing it into closures.
type Lowering struct {
	Funcs         int
	Flatten, Fuse time.Duration
}

// Lowered reports what this session has spent lowering so far. A session
// over a form every function of which some session already lowered
// reports nothing.
func (l *Loader) Lowered() Lowering { return l.lowered }

// catchTopLevel converts an uncaught TJ exception into a Go error. A
// host entry point is never re-entered from guest code, so whatever
// frames a panic left live are dead: the slot count restarts from zero
// and the session can take another CallStatic.
func (l *Loader) catchTopLevel(err *error) {
	r := recover()
	if r != nil {
		l.Env.Unwind(0)
	}
	switch t := r.(type) {
	case nil:
	case lowerAbort:
		*err = t.err
	case rt.Thrown:
		*err = fmt.Errorf("uncaught exception: %s", l.describeExc(t.Val))
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
func (l *Loader) RunMain() error {
	if l.Mod.Entry < 0 {
		return fmt.Errorf("interp: module has no main method")
	}
	// The tables say all that is needed of the entry (static, by
	// VerifyTables); its body may not have arrived yet.
	mr := &l.Mod.Methods[l.Mod.Entry]
	if mr.FuncIdx < 0 {
		return fmt.Errorf("interp: entry method has no body")
	}
	args := make([]rt.Value, len(mr.Params)) // String[] args arrives null
	var err error
	func() {
		defer l.catchTopLevel(&err)
		l.call(mr.FuncIdx, args)
	}()
	return err
}

// CallStatic invokes a static method by class and name (for tests and
// examples).
func (l *Loader) CallStatic(class, name string, args ...rt.Value) (rt.Value, error) {
	for _, mr := range l.Mod.Methods {
		owner := l.Mod.Types.MustGet(mr.Owner)
		if mr.Static && owner.Name == class && mr.Name == name && mr.FuncIdx >= 0 {
			var out rt.Value
			var err error
			func() {
				defer l.catchTopLevel(&err)
				out = l.call(mr.FuncIdx, args)
			}()
			return out, err
		}
	}
	return rt.Value{}, fmt.Errorf("interp: no static method %s.%s", class, name)
}

// ---------------------------------------------------------------------
// Frames and control

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// tsaThrow transfers control to an exception handler within the same
// function; it never escapes a function body.
type tsaThrow struct {
	val     rt.Value
	edge    int
	handler *core.Block
}

type frame struct {
	f    *core.Func
	vals []rt.Value
	args []rt.Value
	ret  rt.Value
	// prev is the most recently executed block, used to resolve the
	// incoming edge of phi evaluation.
	prev *core.Block
	// enterEdge, when >= 0, overrides edge resolution for the next
	// block (exception-handler entry).
	enterEdge int
	caught    rt.Value
}

func (l *Loader) callFunc(fi int32, args []rt.Value) rt.Value {
	f := l.Mod.Funcs[fi]
	if l.frames[fi] == 0 {
		l.frames[fi] = frameSlots(f)
	}
	slots := l.frames[fi]
	l.Env.Enter(slots)
	fr := &frame{
		f:         f,
		vals:      make([]rt.Value, f.NumValues()+1),
		args:      args,
		enterEdge: -1,
	}
	l.execNode(fr, f.Body)
	l.Env.Leave(slots)
	return fr.ret
}

// frameSlots is what one activation of f holds of rt.MaxStackSlots: its
// registers as every engine numbers them (NumValues()+1) and the height
// of its body, which is how many execNode activations the reference
// walker nests to reach the deepest call in it.
func frameSlots(f *core.Func) int64 {
	return rt.FrameSlots(f.NumValues()+1, cstHeight(f.Body))
}

func cstHeight(n *core.CSTNode) int {
	if n == nil {
		return 0
	}
	h := 0
	for _, k := range n.Kids {
		h = max(h, cstHeight(k))
	}
	return h + 1
}

func (fr *frame) val(id core.ValueID) rt.Value {
	return fr.vals[id]
}

func (l *Loader) execNode(fr *frame, n *core.CSTNode) ctrl {
	if n == nil {
		return ctrlNext
	}
	switch n.Kind {
	case core.CSeq:
		for _, k := range n.Kids {
			if c := l.execNode(fr, k); c != ctrlNext {
				return c
			}
		}
		return ctrlNext
	case core.CBlock:
		l.execBlock(fr, n.Block)
		return ctrlNext
	case core.CIf:
		if fr.val(n.Cond).Bool() {
			return l.execNode(fr, n.Kids[0])
		}
		if len(n.Kids) > 1 {
			return l.execNode(fr, n.Kids[1])
		}
		return ctrlNext
	case core.CWhile:
		for {
			// Charge one step per iteration so a loop whose blocks
			// carry no instructions (e.g. `while (true) { }` with a
			// hoisted condition) still consumes step budget and stays
			// interruptible.
			l.Env.Step()
			if c := l.execNode(fr, n.Kids[0]); c != ctrlNext {
				return c
			}
			if !fr.val(n.Cond).Bool() {
				return ctrlNext
			}
			switch c := l.execNode(fr, n.Kids[1]); c {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNext
			}
		}
	case core.CDoWhile:
		for {
			l.Env.Step()
			switch c := l.execNode(fr, n.Kids[0]); c {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNext
			}
			if c := l.execNode(fr, n.Kids[1]); c != ctrlNext {
				return c
			}
			if !fr.val(n.Cond).Bool() {
				return ctrlNext
			}
		}
	case core.CReturn:
		if n.Val != core.NoValue {
			fr.ret = fr.val(n.Val)
		}
		return ctrlReturn
	case core.CBreak:
		return ctrlBreak
	case core.CContinue:
		return ctrlContinue
	case core.CThrow:
		v := fr.val(n.Val)
		if v.R == nil {
			l.throwTo(fr.f.ThrowHandler[n], fr.f.ThrowEdge[n],
				l.newExc(l.exc.NPE, "throw of null"))
		}
		l.throwTo(fr.f.ThrowHandler[n], fr.f.ThrowEdge[n], v)
		return ctrlNext // unreachable
	case core.CTry:
		caught, edge, c, ok := l.runProtected(fr, n)
		if !ok {
			return c
		}
		fr.caught = caught
		fr.enterEdge = edge
		return l.execNode(fr, n.Kids[1])
	}
	panic(fmt.Sprintf("interp: unhandled CST node %v", n.Kind))
}

// runProtected executes the try body, intercepting transfers to this
// node's handler. ok reports whether the handler must run.
func (l *Loader) runProtected(fr *frame, n *core.CSTNode) (caught rt.Value, edge int, c ctrl, ok bool) {
	live := l.Env.StackSlots()
	defer func() {
		// Recover only a transfer to this node's handler; one bound for an
		// enclosing try, and a kill, pass through (see rt.Env.Throw).
		t, isTsa := l.Env.InFlight().(tsaThrow)
		if !isTsa || t.handler != n.Handler {
			return
		}
		recover()
		l.Env.Unwind(live)
		caught, edge, ok = t.val, t.edge, true
	}()
	c = l.execNode(fr, n.Kids[0])
	return caught, edge, c, false
}

// throwTo raises an exception either into a local handler or out of the
// function.
func (l *Loader) throwTo(handler *core.Block, edge int, v rt.Value) {
	if handler != nil {
		l.Env.Throw(tsaThrow{val: v, edge: edge, handler: handler})
	}
	l.Env.Throw(rt.Thrown{Val: v})
}

// raise raises from an instruction site.
func (l *Loader) raise(fr *frame, in *core.Instr, v rt.Value) {
	l.throwTo(fr.f.HandlerOf[in], fr.f.ExcEdge[in], v)
}

func (l *Loader) newExc(c *rt.ClassInfo, msg string) rt.Value {
	o := l.Env.NewObject(c)
	o.Fields[0] = rt.RefValue(&rt.Str{S: msg})
	return rt.RefValue(o)
}

// execBlock evaluates a block: phis in parallel against the incoming
// edge, then the straightline code.
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
					fr.f.Name, fr.prev.Index, b.Index))
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
		l.execInstr(fr, in)
	}
	fr.prev = b
}

// builtinArity lists the host operations this consumer implements as
// imported methods, with their total argument count (receiver included).
// Math operations are absent: they travel as primitives, not methods.
var builtinArity = map[sema.BuiltinID]int{
	sema.BStrLength:     1,
	sema.BStrCharAt:     2,
	sema.BStrSubstring:  3,
	sema.BStrEquals:     2,
	sema.BStrCompareTo:  2,
	sema.BStrIndexOf:    2,
	sema.BStrHashCode:   1,
	sema.BObjHashCode:   1,
	sema.BObjEquals:     2,
	sema.BObjToString:   1,
	sema.BExcGetMessage: 1,
	sema.BPrintlnString: 1,
	sema.BPrintlnInt:    1,
	sema.BPrintlnLong:   1,
	sema.BPrintlnDouble: 1,
	sema.BPrintlnBool:   1,
	sema.BPrintlnChar:   1,
	sema.BPrintlnEmpty:  0,
	sema.BPrintString:   1,
	sema.BPrintInt:      1,
	sema.BPrintLong:     1,
	sema.BPrintDouble:   1,
	sema.BPrintBool:     1,
	sema.BPrintChar:     1,
}
