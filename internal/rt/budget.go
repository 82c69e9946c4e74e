package rt

import (
	"errors"
	"fmt"
	"io"
)

// This file is everything a guest may take from the host and every way a
// session dies for taking more. Both are lists with one home: a Budget is
// minted into an Env by NewEnv and nowhere else, and a kill reason is a
// row of the kills table and nothing else — the metrics that count kills
// are arrays indexed by Kill, so a further reason is a row here and
// appears in every rendering. A guest resource with no row is a hole:
// call depth had none until the engines, which all borrow the Go stack
// per guest call, let a 164-byte unit overflow it, which no recover can
// catch.

// Budget is what one session may consume, in the units Env counts: steps
// (executed instructions) and allocation units (one per object field
// slot, array element, string byte and output byte). Zero means
// unlimited. Call depth is deliberately absent: its limit protects the
// host's stack, not a tenant's share, so it is the constant
// MaxStackSlots, the same for every session.
type Budget struct {
	MaxSteps int64
	MaxAlloc int64
}

// NewEnv is the one constructor of a session's environment: the guest
// prints to out, runs under b, and dies with ErrInterrupted soon after
// interrupt (nil: never) is closed.
func NewEnv(out io.Writer, b Budget, interrupt <-chan struct{}) *Env {
	return &Env{Out: out, MaxSteps: b.MaxSteps, MaxAlloc: b.MaxAlloc, Interrupt: interrupt}
}

// Unbudgeted mints an environment with no budget for a session that
// executes no guest code; reason says, at the call site, why it cannot.
// It exists so that every environment without a budget can be found by
// name.
func Unbudgeted(out io.Writer, reason string) *Env {
	return &Env{Out: out}
}

// The kill sentinels: what an engine panics with when a session exceeds
// what it may take. A guest exception is a value every engine returns
// from the activation it leaves; a kill is a Go panic, which no guest
// handler sees, so a guest cannot catch its own kill. Nothing between a
// kill and its host entry point's one recover may recover and panic
// again: the runtime rescans the stack for each new panic, which made a
// kill 8 000 frames deep under try take 108 s (DESIGN.md §9).
var (
	// ErrAllocLimit: the allocation budget is exhausted.
	ErrAllocLimit = fmt.Errorf("rt: allocation limit exceeded")
	// ErrDepthLimit: the live call stack outgrew MaxStackSlots.
	ErrDepthLimit = fmt.Errorf("rt: call depth limit exceeded")
	// ErrInterrupted: the Interrupt channel was closed mid-execution.
	ErrInterrupted = fmt.Errorf("rt: execution interrupted")
	// ErrStepLimit: the step budget is exhausted.
	ErrStepLimit = fmt.Errorf("rt: step limit exceeded")
)

// Kill is one way a session ends other than by its guest's own doing. The
// values are dense from zero in label order, so [NumKills]T is a table
// indexed by reason.
type Kill int

const (
	KillAllocLimit Kill = iota
	// KillDeadline is a host's refinement of KillInterrupt: Env cannot
	// tell why Interrupt closed, a host that closed it because its own
	// wall-clock deadline fired records this reason instead.
	KillDeadline
	KillDepthLimit
	KillInterrupt
	KillStepLimit
)

// kills is the list: the stable label of each reason and the sentinel the
// engines raise for it (nil where only a host assigns the reason).
var kills = [...]struct {
	reason string
	err    error
}{
	KillAllocLimit: {"alloc_limit", ErrAllocLimit},
	KillDeadline:   {"deadline", nil},
	KillDepthLimit: {"depth_limit", ErrDepthLimit},
	KillInterrupt:  {"interrupt", ErrInterrupted},
	KillStepLimit:  {"step_limit", ErrStepLimit},
}

// NumKills is the number of kill reasons.
const NumKills = Kill(len(kills))

// String is the reason's stable label, as metrics and run results spell it.
func (k Kill) String() string { return kills[k].reason }

// KillOf reports which kill ended a session with err (possibly wrapped);
// ok is false for a clean end and for a guest's own failure.
func KillOf(err error) (k Kill, ok bool) {
	for k, row := range kills {
		if row.err != nil && errors.Is(err, row.err) {
			return Kill(k), true
		}
	}
	return 0, false
}

// KillReason is the label of KillOf(err), "" when err is not a kill.
func KillReason(err error) string {
	if k, ok := KillOf(err); ok {
		return k.String()
	}
	return ""
}

// IsExecError reports whether err is one of the kill sentinels, which an
// interpreter's top-level recover must convert to a plain error instead
// of re-panicking.
func IsExecError(err error) bool {
	for _, row := range kills {
		if err != nil && err == row.err {
			return true
		}
	}
	return false
}

// Call depth. Every engine runs a guest call as a host call, so guest
// recursion grows the Go stack, whose overflow is a fatal error rather
// than a panic; and every activation owns a register file no allocation
// charge covers. Both are bounded by counting live stack slots: an
// activation holds FrameSlots of them from entry to exit, and the session
// dies with ErrDepthLimit when more than MaxStackSlots would be live.
// These are constants, not budget fields: one value is in use, and an Env
// built by a literal that names no limit is as safe as any other.
// DESIGN.md §9 derives them from the host bytes an activation costs on
// the engine where it costs most.
const (
	MaxStackSlots = 1 << 20
	frameSlots    = 16 // the host frames under any guest call
)

// FrameSlots is what one activation holds of MaxStackSlots: a slot per
// register and a constant for the host frames under any call. No engine
// spends host stack on the shape of a body — the reference walker steps
// through its tree without descending into it — so the charge is a
// property of the function's register count alone, the same on every
// engine, and a depth kill lands on the same step count everywhere.
func FrameSlots(regs int) int64 {
	return int64(regs + frameSlots)
}

// Enter charges an activation holding slots (its function's FrameSlots);
// every engine calls it at the same point, before the callee's first step.
func (e *Env) Enter(slots int64) {
	e.slots += slots
	if e.slots > MaxStackSlots {
		panic(ErrDepthLimit)
	}
}

// Leave ends an activation Enter charged, on return and on throw alike.
func (e *Env) Leave(slots int64) { e.slots -= slots }

// StackSlots is the live slot count.
func (e *Env) StackSlots() int64 { return e.slots }

// Unwind is what a host entry point does after recovering a kill (or, in
// interp, a lowering refusal): the frames it crossed died without
// leaving, and none is live once the entry point has returned, so the
// live slot count goes back to zero.
func (e *Env) Unwind() { e.slots = 0 }
