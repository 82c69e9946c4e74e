package codeserver

import (
	"bytes"
	"context"
	"errors"
	"time"

	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/rt"
)

// session is the lifecycle of one guest run on behalf of a tenant, the
// same for POST /run and POST /run-stream: newSession admits it, begin
// hands out the rt.Env the guest executes in, finish closes the books,
// and release (deferred right after newSession) frees what was taken.
// There is no other way in this package to obtain an rt.Env, which is
// what makes four invariants hold on every run path rather than on the
// first one written:
//
//  1. Fair admission first: the tenant's in-flight slot is taken, or the
//     run refused with a *TenantBusyError (ErrBadTenant for an id that is
//     not one), before any load, decode or guest work.
//  2. Budgets are clamped: the env is minted from one rt.Budget, each
//     field clampBudget of the request over the server cap; a path
//     cannot forget one.
//  3. One interrupt: the guest dies with rt.ErrInterrupted when the
//     request is abandoned, the server drains (Shutdown), or
//     Config.RunTimeout expires, while its HTTP exchange stays up.
//  4. The books balance: a begun session is counted once in runs, the
//     run histogram, the guest drain totals and its tenant's row; an
//     abnormal end is one run_error and at most one kill, with the
//     reason decided here and reported in the result.
type session struct {
	s  *Server
	tc *tenantCounters
	// ctx is the request context carrying the session's trace; load and
	// decode spans started from it nest under that trace.
	ctx context.Context
	tr  *obs.Trace

	// budget is the request's budget clamped to the server's caps.
	budget rt.Budget

	// Set by begin.
	env      *rt.Env
	out      bytes.Buffer
	start    time.Time
	execSpan *obs.Span
	// runCtx is the guest's interrupt: cancelled by stop, by the drain
	// (stopDrain undoes that wiring), or at the run deadline.
	runCtx    context.Context
	stop      context.CancelFunc
	stopDrain func() bool
}

// errRunTimeout is the cancellation cause that tells the wall-clock
// enforcer's interrupt apart from a client abort or a drain.
var errRunTimeout = errors.New("codeserver: run deadline exceeded")

// newSession admits one run for opts.Tenant: it refuses an id that is
// not a tenant id (ErrBadTenant) before the tenant has a row, bounds the
// tenant's concurrent sessions before any work happens, so one tenant's
// burst cannot monopolize the run capacity of the node, then opens the
// request trace and clamps the budgets.
func (s *Server) newSession(ctx context.Context, trace string, opts RunOptions) (*session, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	} else if !validTenant(tenant) {
		return nil, ErrBadTenant
	}
	tc := s.m.tenant(tenant)
	lim := s.cfg.TenantMaxInFlight
	if n := tc.n[tInFlight].Add(1); lim > 0 && n > int64(lim) {
		tc.n[tInFlight].Add(-1)
		tc.n[tRejects].Add(1)
		s.m.n[mTenantRejects].Add(1)
		return nil, &TenantBusyError{Tenant: tenant, Limit: lim}
	}
	ctx, tr := s.tracer.StartTrace(ctx, trace)
	return &session{
		s: s, tc: tc, ctx: ctx, tr: tr,
		budget: rt.Budget{
			MaxSteps: clampBudget(opts.MaxSteps, s.cfg.MaxSteps),
			MaxAlloc: clampBudget(opts.MaxAllocs, s.cfg.MaxAllocs),
		},
	}, nil
}

// begin starts the execution phase — everything before it (load, the
// streamed table header) can still fail without a run being counted —
// and returns the env the guest runs in. Every begun session must be
// finished.
func (ss *session) begin() *rt.Env {
	s := ss.s
	s.m.n[mRuns].Add(1)
	s.m.n[mRunsInFlight].Add(1)
	_, ss.execSpan = obs.Start(ss.ctx, "exec")
	ss.start = time.Now()
	if s.cfg.RunTimeout > 0 {
		ss.runCtx, ss.stop = context.WithTimeoutCause(ss.ctx, s.cfg.RunTimeout, errRunTimeout)
	} else {
		ss.runCtx, ss.stop = context.WithCancel(ss.ctx)
	}
	ss.stopDrain = context.AfterFunc(s.baseCtx, ss.stop)
	ss.env = rt.NewEnv(&ss.out, ss.budget, ss.runCtx.Done())
	return ss.env
}

// finish closes the books of a begun session. l is the session's loader,
// nil if none was built, and err is what ended the guest (nil for a clean
// run); budget kills and uncaught exceptions are reported inside the
// result, not as an error. What the session spent lowering is booked here
// too, on both run doors alike — the functions its guest called first: it
// ran inside the run stage, and is what the prepare and compile_backend
// histograms measure.
//
// finish is also where the session ends: once the result holds the run as
// plain data — output, error text, counts — nothing of the guest's heap is
// reachable from outside the loader (a warm snapshot is a detached copy),
// so the loader is released and its memory goes to the next session.
func (ss *session) finish(l *interp.Loader, err error) RunResult {
	s, env := ss.s, ss.env
	s.m.stages[stageRun].Observe(time.Since(ss.start))
	if l != nil {
		s.m.lowered(l.Lowered())
	}
	ss.execSpan.End()
	s.m.n[mRunsInFlight].Add(-1)
	s.m.n[mGuestSteps].Add(env.Steps)
	s.m.n[mGuestAllocs].Add(env.Allocs)
	ss.tc.n[tRuns].Add(1)
	ss.tc.n[tSteps].Add(env.Steps)
	ss.tc.n[tAllocs].Add(env.Allocs)
	res := RunResult{OK: err == nil, Output: ss.out.String(), Steps: env.Steps, Allocs: env.Allocs}
	if err != nil {
		s.m.n[mRunErrors].Add(1)
		res.Error = err.Error()
		if k, killed := rt.KillOf(err); killed {
			if k == rt.KillInterrupt && context.Cause(ss.runCtx) == errRunTimeout {
				k = rt.KillDeadline
			}
			ss.tc.kills[k].Add(1)
			res.Kill = k.String()
		}
	}
	if l != nil {
		l.Release()
	}
	return res
}

// release frees the interrupt wiring, ends the trace and gives the
// tenant its slot back; it runs on every path out of a run, begun or
// not.
func (ss *session) release() {
	if ss.stop != nil {
		ss.stopDrain()
		ss.stop()
	}
	ss.tr.Finish()
	ss.tc.n[tInFlight].Add(-1)
}
