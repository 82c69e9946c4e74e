// Package codeserver is the concurrent mobile-code distribution service:
// a content-addressed store of compiled SafeTSA distribution units (with
// singleflight fills and an optional on-disk tier), a bounded parallel
// producer pool, a consumer-side loader cache that lowers each admitted
// unit once, and an HTTP API over all three. It turns the one-shot
// safetsac/safetsarun pipeline into a service that amortizes producer
// work across clients and serves verified, immutable modules to
// concurrent interpreter sessions.
package codeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/wire"
)

// The budgets safetsad serves under when started with no flags. They are
// the numbers DESIGN.md §9 sizes the host's worst case from, and the
// ones oracle's TestHostCostBoundedByGuestBudget holds that sizing to.
const (
	DefaultMaxSteps   = 50_000_000
	DefaultMaxAllocs  = 64 << 20
	DefaultRunTimeout = 10 * time.Second
)

// Config tunes the server. The zero value is usable: in-memory only,
// GOMAXPROCS compile workers, no step budget.
type Config struct {
	// CacheDir enables the on-disk unit store when non-empty.
	CacheDir string
	// Workers bounds concurrent producer pipelines (<=0: GOMAXPROCS).
	Workers int
	// StageTimeout bounds each producer stage (<=0: no stage deadline).
	StageTimeout time.Duration
	// MaxUnits bounds the in-memory encoded-unit cache (<=0: 1024).
	MaxUnits int
	// MaxModules bounds the decoded-module loader cache (<=0: 256).
	MaxModules int
	// MaxSteps caps the per-run step budget; requests may ask for less
	// but never more (0: unlimited).
	MaxSteps int64
	// MaxAllocs caps the per-run allocation budget (rt.Env.MaxAlloc)
	// the same way: requests may ask for less but never more
	// (0: unlimited). This is the server-side backstop that makes the
	// in-library alloc budgets reachable from POST /run.
	MaxAllocs int64
	// RunTimeout is the wall-clock deadline of one run session; on
	// expiry the guest is interrupted (it dies with rt.ErrInterrupted,
	// recorded as a "deadline" kill) while its HTTP response still
	// completes with the output produced so far (0: no deadline).
	RunTimeout time.Duration
	// TenantMaxInFlight bounds concurrent run sessions per tenant; a
	// run beyond the bound is rejected with a TenantBusyError (HTTP 429
	// + Retry-After) before any work happens (0: unlimited).
	TenantMaxInFlight int
	// PoolUnits bounds the warm-session pool: how many loaded units hold
	// a snapshot of post-static-init state at once, cloned into later
	// sessions so static init runs once per unit, not once per request
	// (0: default 256; negative: pool disabled, every session runs init
	// fresh). A snapshot lives in its loaded unit, so MaxModules bounds
	// the units kept alive either way.
	PoolUnits int
	// MaxSourceBytes bounds the /compile request body (<=0: 8 MiB).
	MaxSourceBytes int64
	// Traces bounds the ring buffer of recent request traces served by
	// /debug/traces (<=0: 64).
	Traces int
	// ModuleOpt upgrades every optimizing compile to the interprocedural
	// tier (CHA/RTA devirtualization, inlining): requests asking for
	// Optimize get ModuleOpt too. The
	// tier participates in the content hash, so units built either way
	// remain distinct.
	ModuleOpt bool
	// NodeName identifies this server inside a fleet: it labels every
	// Prometheus series and the stats snapshot. Empty for single-node
	// deployments (no label, historical wire shape).
	NodeName string
	// WireVersion selects the wire format units are encoded in: 0 or 1
	// for the fixed-code v1 format, 2 for the adaptive range-coded v2
	// format. The version participates in the content hash, so a fleet
	// upgrading to v2 never serves mislabeled bytes.
	WireVersion int
}

// PeerFiller fetches the encoded bytes of a unit this node lacks from
// the fleet peer that owns it. Implementations (internal/cluster) speak
// the peer HTTP API, which moves bytes and nothing else; the server treats
// whatever comes back as untrusted input and admits it locally before
// caching.
type PeerFiller interface {
	FetchUnit(ctx context.Context, k Key) ([]byte, error)
}

// Server ties the store, pool, and loader cache together and exposes
// both a programmatic API (used by tests and embedding daemons) and an
// http.Handler.
type Server struct {
	cfg    Config
	m      *Metrics
	tracer *obs.Tracer
	store  *Store
	pool   *Pool
	loader *LoaderCache

	// peerFiller, when set (SetPeerFiller, before serving), turns a
	// store miss on the run/unit paths into a peer fill instead of a
	// hard ErrUnitNotFound.
	peerFiller PeerFiller

	// baseCtx is cancelled by Shutdown; every run session derives its
	// interrupt from both its request context and this one, so a
	// draining server can stop in-flight guests without killing the
	// HTTP exchange they ride on.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 8 << 20
	}
	switch cfg.WireVersion {
	case 0, 1, 2:
	default:
		return nil, fmt.Errorf("codeserver: unknown wire version %d (want 1 or 2)", cfg.WireVersion)
	}
	m := &Metrics{node: cfg.NodeName}
	store, err := NewStore(cfg.CacheDir, cfg.MaxUnits, m)
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		m:          m,
		tracer:     obs.NewTracer(cfg.Traces),
		store:      store,
		pool:       NewPool(cfg.Workers, cfg.StageTimeout, m),
		loader:     NewLoaderCache(cfg.MaxModules, cfg.PoolUnits, m),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}, nil
}

// SetPeerFiller installs the cluster peer-fill hook. Call before the
// server starts serving traffic; the hook is read without locking.
func (s *Server) SetPeerFiller(f PeerFiller) { s.peerFiller = f }

// Shutdown interrupts every in-flight guest run (each dies with
// rt.ErrInterrupted, which is reported inside its RunResult like any
// other budget kill — the HTTP response is still written in full) and
// waits until no runs remain in flight or ctx expires. New run sessions
// started after Shutdown are interrupted immediately, so the drain
// converges even while already-accepted connections trickle in.
func (s *Server) Shutdown(ctx context.Context) error {
	s.baseCancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.m.n[mRunsInFlight].Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats snapshots the server metrics plus the cache occupancies.
func (s *Server) Stats() Stats {
	st := s.m.snapshot()
	st.UnitsCached = s.store.Len()
	st.ModulesLoaded = s.loader.Len()
	st.StockGives = core.StockCounts()
	st.PoolSessions = s.loader.Warm()
	return st
}

// ResolveOptions folds the server configuration into a request's
// options: a server configured for the interprocedural tier upgrades
// every optimizing request, ModuleOpt always implies Optimize, and the
// configured wire version is the one units are encoded in. The result
// is the one canonical form per effective pipeline, and the only form
// a key may be computed under — every layer that addresses a compile
// (CompileHandler, CompileUnit, the fleet's Node.Compile) resolves first,
// so one source set has one hash on every node. Resolving is idempotent.
func (s *Server) ResolveOptions(opts Options) Options {
	if s.cfg.ModuleOpt && opts.Optimize {
		opts.ModuleOpt = true
	}
	if opts.ModuleOpt {
		opts.Optimize = true
	}
	if s.cfg.WireVersion == 2 {
		opts.WireV2 = true
	}
	return opts
}

// readCompileRequest reads the body of one compile request (the public
// POST /compile and the fleet's peer hop share the shape) into m: bounded
// by Config.MaxSourceBytes, scanned into its source set, options resolved,
// content address computed. The source set is a view of m. On failure it
// has written the error response and reports false.
func (s *Server) readCompileRequest(ctx context.Context, w http.ResponseWriter, r *http.Request, m *requestMem) (k Key, src SourceSet, opts Options, ok bool) {
	_, sp := obs.Start(ctx, "read")
	var err error
	m.body, err = readBody(m.body, r.Body, r.ContentLength, s.cfg.MaxSourceBytes)
	sp.End()
	if err != nil {
		WriteError(w, err)
		return
	}
	if int64(len(m.body)) > s.cfg.MaxSourceBytes {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("source set exceeds %d bytes", s.cfg.MaxSourceBytes),
			Kind:  "parse",
		})
		return
	}
	_, sp = obs.Start(ctx, "key")
	defer sp.End()
	if src, opts, err = parseCompileRequest(m); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "bad request body: " + err.Error(), Kind: "parse"})
		return
	}
	opts = s.ResolveOptions(opts)
	return src.Key(opts), src, opts, true
}

// CompileFunc is the compile step behind a compile route: the unit for a
// source set, and whether it was served from cache. opts are resolved and
// k is src.Key(opts) — CompileHandler computes it once for whoever needs
// it, the store or the fleet's ring. src is valid only until the function
// returns: its views are into request memory the handler then gives back,
// so a step that keeps the sources copies them first (SourceSet.Files).
type CompileFunc func(ctx context.Context, k Key, src SourceSet, opts Options) (*Unit, bool, error)

// CompileHandler is the HTTP door of a compile route, the public one and
// the fleet's alike: one compile trace around reading the request (read),
// scanning and hashing it (key), the compile step (whatever spans it
// opens) and the answer (respond). A request turned away before the
// compile step leaves a trace that ends where it was refused. The body is
// read into memory borrowed from requestBodies and given back once the
// answer is written.
func (s *Server) CompileHandler(compile CompileFunc, respond func(w http.ResponseWriter, u *Unit, opts Options, cached bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := s.tracer.StartTrace(r.Context(), "compile")
		defer tr.Finish()
		m := requestBodies.Take()
		defer requestBodies.Give(m)
		k, src, opts, ok := s.readCompileRequest(ctx, w, r, m)
		if !ok {
			return
		}
		u, cached, err := compile(ctx, k, src, opts)
		if err != nil {
			WriteError(w, err)
			return
		}
		_, sp := obs.Start(ctx, "respond")
		respond(w, u, opts, cached)
		sp.End()
	}
}

// CompileUnit compiles (or fetches) the unit for a source set given as a
// file map. The bool reports whether the unit was served from cache.
func (s *Server) CompileUnit(ctx context.Context, files map[string]string, opts Options) (*Unit, bool, error) {
	opts = s.ResolveOptions(opts)
	src := SourcesOf(files)
	return s.CompileSources(ctx, src.Key(opts), src, opts)
}

// CompileSources is the compile step of this server (a CompileFunc): the
// unit under k from the store, or produced from src and published there.
// Only the miss turns src into the file map the producer takes; a hit
// never materialises the request. Each call is recorded in the server's
// ring buffer — as spans of the caller's trace when ctx carries one, as a
// compile trace of its own otherwise — with the producer stages nested
// under fill when the pipeline actually runs.
func (s *Server) CompileSources(ctx context.Context, k Key, src SourceSet, opts Options) (*Unit, bool, error) {
	if len(src.files) == 0 {
		return nil, false, &driver.Error{Kind: driver.KindParse,
			Err: errors.New("codeserver: empty source set")}
	}
	ctx, tr := s.tracer.JoinTrace(ctx, "compile")
	defer tr.Finish()
	s.m.n[mCompileRequests].Add(1)
	return s.store.GetOrFill(ctx, k, func(ctx context.Context) (admitted, error) {
		a, err := s.pool.Compile(ctx, src.Files(), opts)
		if err != nil {
			s.m.n[mCompileErrors].Add(1)
		}
		return a, err
	})
}

// PeerFillUnit is the compile path of a node that does not own k: the
// unit from the local store, or filled with what fetch brings from the
// owner (see peerFill). Concurrent callers coalesce on one fetch through
// the store's singleflight, so a node asks the owner for a missing unit
// at most once at a time no matter how many requests race. The bool
// reports a local cache hit.
func (s *Server) PeerFillUnit(ctx context.Context, k Key, fetch func(context.Context) ([]byte, error)) (*Unit, bool, error) {
	return s.store.GetOrFill(ctx, k, s.peerFill(k, fetch))
}

// peerFill is the store miss that asks a peer. fetch only moves bytes;
// they are untrusted, and re-establish type safety and referential
// security through the admission a consumer applies to any received unit
// (admit) or reach no tier. Every attempt is one peer_fill sample and
// exactly one of the three counters.
func (s *Server) peerFill(k Key, fetch func(context.Context) ([]byte, error)) func(context.Context) (admitted, error) {
	return func(ctx context.Context) (a admitted, err error) {
		err = s.m.timed(ctx, stagePeerFill, func(ctx context.Context) error {
			data, err := fetch(ctx)
			if err != nil {
				s.m.n[mPeerFillErrors].Add(1)
				return err
			}
			if a, err = admit(data); err != nil {
				s.m.n[mPeerFillRejects].Add(1)
				return &driver.Error{Kind: driver.KindVerify,
					Err: fmt.Errorf("codeserver: peer unit %s rejected by local admission: %w", k, err)}
			}
			s.m.n[mPeerFills].Add(1)
			return nil
		})
		return a, err
	}
}

// lookup returns the unit for k without compiling: the store's tiers,
// then — in cluster mode — the key's owner, whose bytes are admitted
// locally before anything sees them. Without a peer filler a miss is
// ErrUnitNotFound. Lookups are not compile-path cache hits. The module is
// Store.fill's: non-nil when this call led the unit's admission.
func (s *Server) lookup(ctx context.Context, k Key) (*Unit, *core.Module, error) {
	var miss func(context.Context) (admitted, error)
	if pf := s.peerFiller; pf != nil {
		miss = s.peerFill(k, func(ctx context.Context) ([]byte, error) { return pf.FetchUnit(ctx, k) })
	}
	u, mod, _, err := s.store.fill(ctx, k, miss)
	return u, mod, err
}

// Unit returns the encoded distribution unit for a key, if present in
// the store (memory or disk); it never asks a peer.
func (s *Server) Unit(ctx context.Context, k Key) (*Unit, bool) { return s.store.Get(ctx, k) }

// RunResult is the outcome of one execution session.
type RunResult struct {
	OK     bool   `json:"ok"`
	Output string `json:"output"`
	Error  string `json:"error,omitempty"`
	// Kill is set when the host ended the session rather than the guest:
	// the rt.Kill label of the exhausted budget ("step_limit",
	// "alloc_limit", "depth_limit"), "interrupt", or "deadline".
	Kill   string `json:"kill,omitempty"`
	Steps  int64  `json:"steps"`
	Allocs int64  `json:"allocs"`
}

// ErrUnitNotFound is returned by RunUnit for a hash the store does not
// hold.
var ErrUnitNotFound = errors.New("codeserver: unit not found")

// TenantBusyError is returned when a run would exceed the tenant's
// in-flight bound. The HTTP layer maps it to 429 with a Retry-After
// header; nothing is executed on the rejected path.
type TenantBusyError struct {
	Tenant string
	Limit  int
}

func (e *TenantBusyError) Error() string {
	return fmt.Sprintf("codeserver: tenant %q at its in-flight run limit (%d)", e.Tenant, e.Limit)
}

// ErrBadTenant is returned for a run whose tenant id is not 1 to
// maxTenantLen bytes of [A-Za-z0-9._:-]. The id names a metrics row that
// every /metrics page and gossip round carries, so it is refused before
// the row exists; the HTTP layer maps it to 400.
var ErrBadTenant = fmt.Errorf("codeserver: a tenant id is 1 to %d of [A-Za-z0-9._:-]", maxTenantLen)

// maxTenantLen bounds a tenant id's bytes.
const maxTenantLen = 64

// validTenant reports whether id is a tenant id (see ErrBadTenant).
func validTenant(id string) bool {
	if len(id) == 0 || len(id) > maxTenantLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// clampBudget folds a per-request budget over the server cap: requests
// may ask for less than the cap but never more, and a request that asks
// for nothing (<= 0) gets the cap itself (or unlimited when the server
// sets none).
func clampBudget(req, cap int64) int64 {
	if cap > 0 && (req <= 0 || req > cap) {
		return cap
	}
	if req <= 0 {
		return 0
	}
	return req
}

// RunOptions selects the budgets and accounting identity of one run
// session. The zero value means: server-default budgets, tenant
// DefaultTenant.
type RunOptions struct {
	// MaxSteps / MaxAllocs request per-run budgets; both are clamped to
	// the server caps (<= 0 requests the cap itself).
	MaxSteps  int64
	MaxAllocs int64
	// Tenant is the accounting identity ("" folds to DefaultTenant; any
	// other id must be 1 to 64 of [A-Za-z0-9._:-], see ErrBadTenant).
	Tenant string
}

// RunUnit executes the unit's main under a step budget; see RunUnitOpts.
func (s *Server) RunUnit(ctx context.Context, k Key, maxSteps int64) (RunResult, error) {
	return s.RunUnitOpts(ctx, k, RunOptions{MaxSteps: maxSteps})
}

// RunUnitOpts executes the unit's main in an isolated session on the
// compiled form: the module and its compiled form come from the
// loader cache, shared by every session of the unit (a session decodes
// and lowers the functions it calls that no session has called before),
// while the class metadata, statics, and heap are per-session, so
// concurrent sessions cannot observe each other. When the loaded unit
// holds a warm snapshot and the request's budgets admit it, the session is
// cloned from the post-static-init snapshot instead of re-running the
// initializers — byte-exact with a fresh session by the Snapshot contract;
// otherwise it runs fresh, and offers the unit a snapshot after static
// init. Guest failures (uncaught exceptions, budget kills)
// are reported inside RunResult, not as an error; a tenant over its
// in-flight bound gets a *TenantBusyError before any work happens. A
// function the run called that no longer decodes or that lowering refuses
// rejects the unit (see verdict): a verify error, and the unit is dropped
// from every tier.
func (s *Server) RunUnitOpts(ctx context.Context, k Key, opts RunOptions) (RunResult, error) {
	sess, err := s.newSession(ctx, "run", opts)
	if err != nil {
		return RunResult{}, err
	}
	defer sess.release()
	// The session holds its unit until finish has released its loader:
	// clones and fresh sessions alike pull bodies into the unit's memory.
	lu, hit, err := s.loader.GetOrLoad(sess.ctx, k, s.lookup)
	if err != nil {
		return RunResult{}, err
	}
	snap := lu.snapshot()
	if snap != nil && !snap.Admits(sess.budget) {
		// The request's budgets would have killed static init; a clone
		// cannot reproduce that mid-init death, so run fresh.
		s.m.n[mPoolDeclines].Add(1)
		snap = nil
	}
	env := sess.begin()
	var l *interp.Loader
	if snap != nil {
		if l, err = snap.NewSession(env); err == nil {
			s.m.n[mPoolHits].Add(1)
		}
	} else {
		if hit {
			s.m.n[mLoaderHits].Add(1)
		}
		if l, err = interp.LoadTrustedDeferred(lu.Mod, nil, lu.Comp, env); err == nil {
			if err = l.RunStaticInit(); err == nil {
				s.loader.offer(lu, l, sess.out.Bytes())
			}
		}
	}
	if err == nil {
		err = l.RunMain()
	}
	res := sess.finish(l, err)
	lu.letGo()
	if err := verdict(err, nil); err != nil {
		// Refused after admission: no tier that may hold the unit — the
		// store's memory and disk, the loader and the snapshot in the
		// loaded unit — serves it again.
		s.store.forget(k)
		s.loader.forget(k)
		s.m.n[mLoadErrors].Add(1)
		return RunResult{}, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s rejected: %w", k, err)}
	}
	return res, nil
}

// RunStreamResult is the outcome of one streaming run session: the run
// result plus the content address the admitted unit was cached under.
type RunStreamResult struct {
	RunResult
	// Hash is the wire-addressed key (KeyForWire) of the admitted unit;
	// it is only present when the whole stream verified cleanly, which
	// is also the only case where the unit was cached.
	Hash string `json:"hash,omitempty"`
}

// MaxUnitBytes bounds what any endpoint accepts as one encoded unit: the
// body of a streaming run (a longer body is surfaced as a truncation —
// the decoder sees the stream end mid-unit — or as trailing garbage, both
// of which reject the unit) and a fleet peer's unit response. Units are
// source-derived and small; anything near this is a broken or hostile
// sender, not a real unit.
const MaxUnitBytes = 64 << 20

// RunUnitStream executes a distribution unit delivered as raw wire
// bytes, starting the guest before the final byte arrives: the symbol
// tables are decoded and statically verified up front, and a function is
// callable once admitted and lowered. The guest pulls: calling a function
// that has not arrived reads the body, on the session's own goroutine,
// exactly as far as that function, and lowers it then
// (wire.DecodeVerifiedStreamIn + interp.PulledIn, sized by the function
// count of the admitted tables) — the rule RunUnitOpts's sessions follow,
// with the same handlers, into a form of the session's own: this door
// takes nothing from the loader cache or the pool and leaves nothing in
// them. The cursor decodes, and the session
// lowers, into memory lent from the stock a resident unit's is lent from
// (unitArenas), which the door gives back once the session has finished.
// Any failure anywhere in the stream — truncation, a function the
// verifier rejects, trailing garbage, a function the guest called that
// lowering refuses — rejects the whole unit: the response is a verify
// error and nothing is cached in the store, the loader or the pool. Only after verdict returns nil are the
// exact bytes cached under their wire address. A body byte-identical to a
// unit resident in the store's memory tier is the one exception to
// decoding the tail (see tail): those bytes were admitted whole once, so
// the store's record is the tail's verdict.
func (s *Server) RunUnitStream(ctx context.Context, body io.Reader, opts RunOptions) (RunStreamResult, error) {
	m := requestBodies.Take()
	defer requestBodies.Give(m)
	return s.runStream(ctx, body, opts, m)
}

// runStream is RunUnitStream with the body teed into m.body.
func (s *Server) runStream(ctx context.Context, body io.Reader, opts RunOptions, m *requestMem) (RunStreamResult, error) {
	sess, err := s.newSession(ctx, "run_stream", opts)
	if err != nil {
		return RunStreamResult{}, err
	}
	defer sess.release()
	// Given back on the way out, when every path below has finished the
	// session it began: nothing reads the unit's bodies after that.
	a := unitArenas.Take()
	defer unitArenas.Give(a)

	// The body is teed into m as the cursor consumes it, so the bytes the
	// decoder admitted — and only those — can be cached afterwards. The
	// cursor reads through src, which tail re-points once the guest returns.
	lim := io.LimitReader(body, MaxUnitBytes+1)
	src := &streamSource{r: io.TeeReader(lim, m)}

	var su *wire.StreamingUnit
	var l *interp.Loader
	var runErr error
	var k Key
	var resident *Unit
	err = s.m.timed(sess.ctx, stageWireDecodeStream, func(ctx context.Context) (err error) {
		if su, err = wire.DecodeVerifiedStreamIn(src, wire.DecodeOptions{}, a.First); err != nil {
			return err
		}
		gate := streamGate(su)
		pull := func(fi int) (*core.Func, error) {
			if err := gate(fi); err != nil {
				return nil, err
			}
			return su.Mod.Funcs[fi], nil
		}
		comp := interp.PulledIn(su.Mod, su.NumFuncs(), pull, a.Second)
		if l, runErr = interp.LoadTrustedCompiled(su.Mod, comp, sess.begin()); runErr == nil {
			runErr = l.RunMain()
		}
		var tailErr error
		k, resident, tailErr = s.tail(ctx, su, src, lim, m)
		return verdict(runErr, tailErr)
	})
	if err != nil {
		if su != nil {
			// The session began (the header was admitted): the run happened,
			// but what the guest did with a rejected unit is not reported:
			// the stream's error is.
			sess.finish(l, err)
		}
		s.m.n[mStreamRejects].Add(1)
		return RunStreamResult{}, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: streamed unit rejected: %w", err)}
	}
	res := RunStreamResult{RunResult: sess.finish(l, runErr)}
	if resident != nil {
		res.Hash = resident.Key.String()
		return res, nil
	}

	// Publication is a fill like any other: a key already resident or on
	// disk costs no copy and no write, and identical concurrent streams
	// coalesce. It outlives the guest's interrupt; should it adopt another
	// caller's failed peer fill of the same key, the unit is simply not
	// cached and no hash is reported.
	u, _, _, err := s.store.fill(context.WithoutCancel(sess.ctx), k, func(context.Context) (admitted, error) {
		// The verdict was nil: every body was admitted.
		return admitted{wire: bytes.Clone(m.body), instrs: su.Mod.NumInstrs()}, nil
	})
	if err == nil {
		res.Hash = u.Key.String()
	}
	return res, nil
}

// streamGate is the gate a streamed session's first calls pass through:
// the cursor's own (a variable, so that a test can damage a body after its
// admission, which no bytes can).
var streamGate = func(su *wire.StreamingUnit) func(int) error { return su.WaitFunc }

// tail decides the part of a streamed unit its guest did not pull. The
// door reads the rest of the body into m without decoding it, through
// the bound the cursor reads through (lim), and keys the whole. When the
// body was read to its end without an error and the store's memory tier
// holds those very bytes, they were admitted whole when they entered it,
// so the tail's verdict is nil and the resident unit is returned: no
// decode, no fill. The bytes decide, not the key — a peer fill stores
// whatever the owner sent under the key it was asked for — and the disk
// tier is never asked, because what it holds is re-admitted on every read.
// The door reads at most one byte past the longest unit the tier has held
// (Store.widest): a body longer than that is no resident unit, so it never
// holds more of a body ahead of the cursor than it could match. Anything
// else resumes the cursor over what the door read, followed by the rest of
// the body or the read's error, so the cursor meets exactly the stream it
// would have read itself, and su.Wait decides. The key is computed once,
// by whichever path has the whole body.
func (s *Server) tail(ctx context.Context, su *wire.StreamingUnit, src *streamSource, lim io.Reader, m *requestMem) (k Key, _ *Unit, err error) {
	ctx, sp := obs.Start(ctx, "tail")
	defer sp.End()
	at, widest := len(m.body), s.store.widest.Load() // m.body[:at] went through the cursor's source
	var rerr error
	m.body, rerr = readBody(m.body, lim, 0, widest)
	whole := rerr == nil && src.err == nil && int64(len(m.body)) <= widest
	if whole {
		k = KeyForWire(m.body)
		if u, ok := s.store.resident(k); ok && bytes.Equal(u.Wire, m.body) {
			_, rsp := obs.Start(ctx, "resident")
			rsp.End()
			s.m.n[mResidentStreams].Add(1)
			return k, u, nil
		}
	}
	// m.body is only ever appended to, so the slice handed to the cursor
	// keeps its bytes while the tee adds the rest of the body behind them.
	rest := io.TeeReader(lim, m)
	if rerr != nil {
		rest = errReader{rerr}
	}
	src.r = io.MultiReader(bytes.NewReader(m.body[at:]), rest)
	_, wsp := obs.Start(ctx, "wait")
	err = su.Wait()
	wsp.End()
	if !whole && err == nil {
		k = KeyForWire(m.body)
	}
	return k, nil, err
}

// streamSource is what a stream door's cursor reads: the client's body
// until the guest returns, then what tail read of it ahead of the cursor.
// err is the first error the body gave the cursor other than its end.
type streamSource struct {
	r   io.Reader
	err error
}

func (s *streamSource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// errReader ends a resumed stream the way the body's read ended.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// verdict decides whether a run's unit stands, given what ended its
// session and, for a streamed unit, what the cursor said of the whole
// body (nil on /run, whose unit was admitted whole before its session
// began). The cursor's error rejects the unit whatever the guest did.
// Past that the session's error is the guest's own affair — with one
// exception, the same on both doors: a function admission accepted and
// the first-call lowering refused (errors.ErrUnsupported; lowering
// validates what it lowers, and a body it refuses is a hole in the
// verifier if it ever happens) rejects the unit. On /run a body of the
// resident bytes that no longer decodes is marked the same way
// (LoaderCache.pull): the store admitted those bytes whole, so they were
// damaged in memory, and the unit goes too.
func verdict(runErr, waitErr error) error {
	if waitErr != nil {
		return waitErr
	}
	if errors.Is(runErr, errors.ErrUnsupported) {
		return runErr
	}
	return nil
}

// ---------------------------------------------------------------------
// HTTP API

// CompileRequest is the POST /compile body. Exported so the cluster
// layer (and load generators) speak the same wire shape.
type CompileRequest struct {
	Files    map[string]string `json:"files"`
	Optimize bool              `json:"optimize"`
	// ModuleOpt asks for the interprocedural optimizer tier (implies
	// Optimize); it yields a distinct unit hash from plain Optimize.
	ModuleOpt bool `json:"module_opt"`
}

// CompileResponse is the POST /compile response body.
type CompileResponse struct {
	Hash         string `json:"hash"`
	Size         int    `json:"size"`
	Instructions int    `json:"instructions"`
	Optimized    bool   `json:"optimized"`
	Cached       bool   `json:"cached"`
}

// RunRequest is the POST /run/{hash} body.
type RunRequest struct {
	MaxSteps  int64 `json:"max_steps"`
	MaxAllocs int64 `json:"max_allocs"`
	// Tenant is the accounting identity of the session; empty falls
	// back to the TenantHeader request header, then DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
}

// TenantHeader is the request header carrying the tenant identity when
// the body does not (and the header routing layers use to forward it).
const TenantHeader = "X-Safetsa-Tenant"

// ErrorResponse is the JSON error body every endpoint uses.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Handler returns the HTTP API:
//
//	POST /compile       {"files": {...}, "optimize": bool} → unit summary
//	GET  /unit/{hash}   raw distribution-unit bytes
//	POST /run/{hash}    {"max_steps": n} → execution result
//	POST /run-stream    raw unit bytes → streaming execution result
//	GET  /stats         metrics snapshot (JSON)
//	GET  /metrics       metrics in Prometheus text format
//	GET  /debug/traces  ring buffer of recent request traces (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.CompileHandler(s.CompileSources, WriteCompileResponse))
	mux.HandleFunc("GET /unit/{hash}", s.handleUnit)
	mux.HandleFunc("POST /run/{hash}", s.handleRun)
	mux.HandleFunc("POST /run-stream", s.handleRunStream)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return mux
}

// WriteJSON writes an indented JSON body with the given status. Shared
// with the cluster layer so every endpoint keeps one response shape.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError maps a pipeline error onto an HTTP status: user-program
// faults are 4xx, pipeline faults and timeouts are 5xx.
func WriteError(w http.ResponseWriter, err error) {
	kindStr := driver.KindOf(err).String()
	status := http.StatusInternalServerError
	var busy *TenantBusyError
	switch {
	case errors.As(err, &busy):
		// Fair-admission rejection: the tenant is at its in-flight
		// bound; the client should back off briefly and retry.
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
		kindStr = "throttled"
	case errors.Is(err, ErrBadTenant):
		status = http.StatusBadRequest
		kindStr = "parse"
	case errors.Is(err, ErrUnitNotFound):
		status = http.StatusNotFound
		kindStr = "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
	case driver.IsUserError(err):
		status = http.StatusBadRequest
	}
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kindStr})
}

// WriteCompileResponse answers a compile request, public or fleet-routed,
// with the unit's summary. opts are the request's resolved options (from
// CompileHandler): whether the unit is optimized is a fact about what
// was asked for, the same on every path that can answer.
func WriteCompileResponse(w http.ResponseWriter, u *Unit, opts Options, cached bool) {
	m := requestBodies.Take()
	m.answer = appendCompileResponse(m.answer, &CompileResponse{
		Hash:         u.Key.String(),
		Size:         u.Size,
		Instructions: u.Instrs,
		Optimized:    opts.Optimize,
		Cached:       cached,
	})
	writeAnswer(w, m.answer)
	requestBodies.Give(m)
}

// WriteUnit writes a unit's encoded bytes as the response body.
func WriteUnit(w http.ResponseWriter, u *Unit) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(u.Wire)))
	_, _ = w.Write(u.Wire)
}

// PathKey parses the {hash} path element of a unit-addressed route. On a
// malformed hash it has written the 400 response and reports false.
func PathKey(w http.ResponseWriter, r *http.Request) (Key, bool) {
	k, err := ParseKey(r.PathValue("hash"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "parse"})
	}
	return k, err == nil
}

func (s *Server) handleUnit(w http.ResponseWriter, r *http.Request) {
	k, ok := PathKey(w, r)
	if !ok {
		return
	}
	u, _, err := s.lookup(r.Context(), k)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteUnit(w, u)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	k, ok := PathKey(w, r)
	if !ok {
		return
	}
	m := requestBodies.Take()
	defer requestBodies.Give(m)
	var req RunRequest
	if r.ContentLength != 0 {
		var err error
		if req, err = parseRunRequest(m, r.Body, r.ContentLength); err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: "bad request body: " + err.Error(), Kind: "parse"})
			return
		}
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	res, err := s.RunUnitOpts(r.Context(), k, RunOptions{
		MaxSteps:  req.MaxSteps,
		MaxAllocs: req.MaxAllocs,
		Tenant:    req.Tenant,
	})
	if err != nil {
		WriteError(w, err)
		return
	}
	m.answer = appendRunResult(m.answer, &res)
	writeAnswer(w, m.answer)
}

// handleRunStream is POST /run-stream: the body is the raw distribution
// unit (octet-stream), executed as it arrives. Budgets and tenant ride
// on query parameters and the tenant header, since the body is the unit
// itself.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	opts := RunOptions{Tenant: r.Header.Get(TenantHeader)}
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"max_steps", &opts.MaxSteps}, {"max_allocs", &opts.MaxAllocs}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest, ErrorResponse{
					Error: fmt.Sprintf("bad %s: %v", p.name, err), Kind: "parse"})
				return
			}
			*p.dst = n
		}
	}
	m := requestBodies.Take()
	defer requestBodies.Give(m)
	res, err := s.runStream(r.Context(), r.Body, opts, m)
	if err != nil {
		WriteError(w, err)
		return
	}
	m.answer = appendRunStreamResult(m.answer, &res)
	writeAnswer(w, m.answer)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, s.Stats())
}

// tracesResponse is the wire shape of /debug/traces.
type tracesResponse struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ts := s.tracer.Recent()
	if ts == nil {
		ts = []obs.TraceSnapshot{} // wire contract: always an array
	}
	WriteJSON(w, http.StatusOK, tracesResponse{Traces: ts})
}
