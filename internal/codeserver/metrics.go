package codeserver

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"safetsa/internal/core"
	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/rt"
)

// Metrics is the server-wide instrumentation, updated with atomics on
// every request path so it is safe under full concurrency. It has one
// reader, snapshot: GET /stats serves the Stats it cuts, GET /metrics
// renders that same value (writePrometheus), and a fleet member's gossip
// row embeds it.
type Metrics struct {
	// node is the fleet identity stamped onto every Prometheus series
	// and the stats snapshot ("" for a single-node server: no label).
	node string

	compileRequests  atomic.Uint64
	cacheHits        atomic.Uint64
	diskHits         atomic.Uint64
	compiles         atomic.Uint64
	coalesced        atomic.Uint64
	compileErrors    atomic.Uint64
	compilesInFlight atomic.Int64
	evictions        atomic.Uint64

	// Peer-fill accounting (cluster mode): units fetched from a fleet
	// peer and re-admitted through the local decode+verify path, fetches
	// that failed before admission, and — the security counter — peer
	// bytes rejected by local admission. Rejected bytes never reach the
	// memory or disk tier.
	peerFills       atomic.Uint64
	peerFillErrors  atomic.Uint64
	peerFillRejects atomic.Uint64

	loads       atomic.Uint64
	loaderHits  atomic.Uint64
	loadErrors  atomic.Uint64
	loaderEvict atomic.Uint64
	// loweredFuncs counts function bodies run sessions lowered, on both run
	// doors alike: on a function's first call, once per function of a
	// form, however many sessions raced to call it (interp.Loader.lower).
	loweredFuncs atomic.Uint64
	// pulledFuncs counts function bodies decoded and admitted from a
	// resident unit's cursor on first call (LoaderCache.pull); each is
	// pulled once per load.
	pulledFuncs atomic.Uint64

	runs         atomic.Uint64
	runErrors    atomic.Uint64
	runsInFlight atomic.Int64

	// streamRejects counts streaming runs whose unit was rejected at any
	// point in the stream (header, tables, a function the verifier
	// refused, truncation, trailing garbage). Rejected bytes never reach
	// either cache tier.
	streamRejects atomic.Uint64
	// residentStreams counts streaming runs whose tail was not decoded
	// because the store's memory tier held the same bytes (Server.tail).
	residentStreams atomic.Uint64

	// Run-session budget accounting: cumulative guest work (rt.Env step
	// and allocation counters drained after every session). Kills are
	// counted once, in the killed session's tenant row; the server-wide
	// figures are sums over the rows.
	guestSteps  atomic.Int64
	guestAllocs atomic.Int64

	// Warm-session pool accounting: sessions served from a snapshot
	// clone (hits), snapshots built+verified+published (builds),
	// requests whose budgets were too tight to admit a clone (declines,
	// served fresh), snapshots that failed their publish-time
	// self-verification (verifyFails — a clone-machinery alarm, always 0
	// in a healthy server), and snapshots dropped with their unit when
	// the loader cache let go of it (evictions).
	poolHits        atomic.Uint64
	poolBuilds      atomic.Uint64
	poolDeclines    atomic.Uint64
	poolVerifyFails atomic.Uint64
	poolEvictions   atomic.Uint64

	// Per-tenant accounting. tenantRejects is the fleet-visible total of
	// fair-admission 429s; the per-tenant breakdown (runs, rejects,
	// in-flight, budget drain, kills by reason) lives in tenants, a
	// lazily grown bounded map — beyond maxTenants, rows fold into the
	// "overflow" tenant so a tenant-id flood cannot grow the map without
	// bound.
	tenantRejects atomic.Uint64
	tmu           sync.Mutex
	tenants       map[string]*tenantCounters

	// stages holds one latency histogram per pipeline stage.
	stages [numStages]obs.Histogram
}

// stage is one timed pipeline stage. stageNames is its one spelling: the
// span name at its obs.Timed site, its Prometheus stage label and the
// prefix of its *_nanos and *_latency keys in /stats.
type stage int

const (
	stageCompile          stage = iota // the whole producer pipeline, one sample per actual compile
	stageDecode                        // one sample per load that opened the unit's bytes itself, and one per pull of bodies through it, inside run
	stageVerify                        // declared and unfed: admission is one step (DESIGN.md §7)
	stagePrepare                       // one sample per session that lowered a function: its flatten time, inside run
	stageCompileBackend                // likewise: its closure-fusion time
	stageRun                           // one sample per execution session
	stagePeerFill                      // one sample per peer fetch+admission attempt
	stageWireDecodeStream              // one /run-stream unit, first header byte to final verdict; overlaps the guest
	numStages
)

var stageNames = [numStages]string{"compile", "decode", "verify", "prepare", "compile_backend", "run", "peer_fill", "wire_decode_stream"}

// timed runs fn as stage s: one span and one histogram sample, fed by
// the same clock (obs.Timed).
func (m *Metrics) timed(ctx context.Context, s stage, fn func(context.Context) error) error {
	return obs.Timed(ctx, stageNames[s], &m.stages[s], fn)
}

// lowered books what one session spent lowering the functions it called
// first: the count, and one prepare and one compile_backend sample when
// there was any.
func (m *Metrics) lowered(lw interp.Lowering) {
	if lw.Funcs == 0 {
		return
	}
	m.loweredFuncs.Add(uint64(lw.Funcs))
	m.stages[stagePrepare].Observe(lw.Flatten)
	m.stages[stageCompileBackend].Observe(lw.Fuse)
}

// DefaultTenant is the accounting identity of run requests that carry
// no tenant field.
const DefaultTenant = "anon"

// maxTenants bounds the per-tenant metrics map; the first maxTenants
// distinct tenant ids get their own rows, later ones share "overflow".
const maxTenants = 256

// tenantCounters is one tenant's accounting row.
type tenantCounters struct {
	runs     atomic.Uint64
	rejects  atomic.Uint64
	inFlight atomic.Int64
	steps    atomic.Int64
	allocs   atomic.Int64
	// kills is indexed by reason: rt's list of kills is the only one, so
	// a reason added there is counted and rendered here.
	kills [rt.NumKills]atomic.Uint64
}

// tenant returns (creating on first sight) the counters row for name.
func (m *Metrics) tenant(name string) *tenantCounters {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.tenants == nil {
		m.tenants = make(map[string]*tenantCounters)
	}
	tc, ok := m.tenants[name]
	if !ok {
		if len(m.tenants) >= maxTenants {
			name = "overflow"
			if tc, ok = m.tenants[name]; ok {
				return tc
			}
		}
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// TenantStats is one tenant's row in the /stats snapshot.
type TenantStats struct {
	Runs     uint64            `json:"runs"`
	Rejects  uint64            `json:"rejects"`
	InFlight int64             `json:"in_flight"`
	Steps    int64             `json:"steps"`
	Allocs   int64             `json:"allocs"`
	Kills    map[string]uint64 `json:"kills,omitempty"`
}

// Stats is the exported snapshot of Metrics, plus the cache sizes filled
// in by the component that owns them. It is what GET /stats serves and
// what GET /metrics renders.
type Stats struct {
	// Node is the fleet identity of the server that produced this
	// snapshot (absent for single-node servers).
	Node string `json:"node,omitempty"`

	// Producer side (content-addressed store + compile pool).
	CompileRequests  uint64 `json:"compile_requests"`
	CacheHits        uint64 `json:"cache_hits"`
	DiskHits         uint64 `json:"disk_hits"`
	Compiles         uint64 `json:"compiles"`
	Coalesced        uint64 `json:"coalesced"`
	CompileErrors    uint64 `json:"compile_errors"`
	CompilesInFlight int64  `json:"compiles_in_flight"`
	Evictions        uint64 `json:"evictions"`
	UnitsCached      int    `json:"units_cached"`

	// Cluster peer-fill path (see Metrics).
	PeerFills       uint64 `json:"peer_fills"`
	PeerFillErrors  uint64 `json:"peer_fill_errors"`
	PeerFillRejects uint64 `json:"peer_fill_rejects"`

	// Consumer side (loader cache + execution sessions).
	Loads         uint64 `json:"loads"`
	LoaderHits    uint64 `json:"loader_hits"`
	LoadErrors    uint64 `json:"load_errors"`
	LoaderEvicted uint64 `json:"loader_evicted"`
	ModulesLoaded int    `json:"modules_loaded"`
	// LoweredFunctions counts the function bodies run sessions lowered (see
	// Metrics.loweredFuncs).
	LoweredFunctions uint64 `json:"lowered_functions"`
	// PulledFunctions counts the function bodies run sessions decoded from
	// a resident unit's cursor on first call (see Metrics.pulledFuncs).
	PulledFunctions uint64 `json:"pulled_functions"`
	Runs            uint64 `json:"runs"`
	RunErrors       uint64 `json:"run_errors"`
	RunsInFlight    int64  `json:"runs_in_flight"`
	StreamRejects   uint64 `json:"stream_rejects"`
	// ResidentStreams counts streaming runs whose tail the store vouched
	// for (see Metrics.residentStreams).
	ResidentStreams uint64 `json:"resident_streams"`

	// Guest budget accounting (see Metrics). Kills holds every reason
	// that has killed a session; the four *Kills keys are the legacy
	// spelling of four of its entries.
	GuestSteps      int64             `json:"guest_steps"`
	GuestAllocs     int64             `json:"guest_allocs"`
	Kills           map[string]uint64 `json:"kills,omitempty"`
	StepLimitKills  uint64            `json:"step_limit_kills"`
	AllocLimitKills uint64            `json:"alloc_limit_kills"`
	InterruptKills  uint64            `json:"interrupt_kills"`
	DeadlineKills   uint64            `json:"deadline_kills"`

	// Warm-session pool (see Metrics). PoolSessions is the number of
	// loaded units holding a snapshot, filled in by the server.
	PoolHits        uint64 `json:"pool_hits"`
	PoolBuilds      uint64 `json:"pool_builds"`
	PoolDeclines    uint64 `json:"pool_declines"`
	PoolVerifyFails uint64 `json:"pool_verify_fails"`
	PoolEvictions   uint64 `json:"pool_evictions"`
	PoolSessions    int    `json:"pool_sessions"`

	// StockGives is what the Gives of each recycling stock did, by stock
	// name (core.Stock): items kept for the next borrower, and items
	// dropped to the collector for holding more than the stock's cap. The
	// stocks are the process's, so it is filled in by the server.
	StockGives map[string]core.StockCount `json:"stock_gives"`

	// Multi-tenant accounting: total fair-admission rejections plus the
	// per-tenant breakdown.
	TenantRejects uint64                 `json:"tenant_rejects"`
	Tenants       map[string]TenantStats `json:"tenants,omitempty"`

	// Cumulative latencies (nanoseconds) over all requests. Legacy keys:
	// the sums of the stage histograms, so they keep increasing exactly as
	// before the histograms existed.
	CompileNanos          int64 `json:"compile_nanos"`
	DecodeNanos           int64 `json:"decode_nanos"`
	VerifyNanos           int64 `json:"verify_nanos"`
	PrepareNanos          int64 `json:"prepare_nanos"`
	CompileBackendNanos   int64 `json:"compile_backend_nanos"`
	RunNanos              int64 `json:"run_nanos"`
	PeerFillNanos         int64 `json:"peer_fill_nanos"`
	WireDecodeStreamNanos int64 `json:"wire_decode_stream_nanos"`

	// Per-stage latency distributions (count, sum, p50/p90/p99).
	CompileLatency          obs.LatencySummary `json:"compile_latency"`
	DecodeLatency           obs.LatencySummary `json:"decode_latency"`
	VerifyLatency           obs.LatencySummary `json:"verify_latency"`
	PrepareLatency          obs.LatencySummary `json:"prepare_latency"`
	CompileBackendLatency   obs.LatencySummary `json:"compile_backend_latency"`
	RunLatency              obs.LatencySummary `json:"run_latency"`
	PeerFillLatency         obs.LatencySummary `json:"peer_fill_latency"`
	WireDecodeStreamLatency obs.LatencySummary `json:"wire_decode_stream_latency"`

	// stages is the cut of the stage histograms the *Nanos and *Latency
	// fields digest, buckets included, for /metrics; JSON never sees it.
	stages [numStages]obs.HistogramSnapshot
}

// snapshot is the one reader of m: every counter, tenant row and stage
// histogram, cut once.
func (m *Metrics) snapshot() Stats {
	st := Stats{
		Node:             m.node,
		CompileRequests:  m.compileRequests.Load(),
		CacheHits:        m.cacheHits.Load(),
		DiskHits:         m.diskHits.Load(),
		Compiles:         m.compiles.Load(),
		Coalesced:        m.coalesced.Load(),
		CompileErrors:    m.compileErrors.Load(),
		CompilesInFlight: m.compilesInFlight.Load(),
		Evictions:        m.evictions.Load(),
		PeerFills:        m.peerFills.Load(),
		PeerFillErrors:   m.peerFillErrors.Load(),
		PeerFillRejects:  m.peerFillRejects.Load(),
		Loads:            m.loads.Load(),
		LoaderHits:       m.loaderHits.Load(),
		LoadErrors:       m.loadErrors.Load(),
		LoaderEvicted:    m.loaderEvict.Load(),
		LoweredFunctions: m.loweredFuncs.Load(),
		PulledFunctions:  m.pulledFuncs.Load(),
		Runs:             m.runs.Load(),
		RunErrors:        m.runErrors.Load(),
		RunsInFlight:     m.runsInFlight.Load(),
		StreamRejects:    m.streamRejects.Load(),
		ResidentStreams:  m.residentStreams.Load(),
		GuestSteps:       m.guestSteps.Load(),
		GuestAllocs:      m.guestAllocs.Load(),
		Kills:            map[string]uint64{},
		PoolHits:         m.poolHits.Load(),
		PoolBuilds:       m.poolBuilds.Load(),
		PoolDeclines:     m.poolDeclines.Load(),
		PoolVerifyFails:  m.poolVerifyFails.Load(),
		PoolEvictions:    m.poolEvictions.Load(),
		TenantRejects:    m.tenantRejects.Load(),
	}

	m.tmu.Lock()
	if len(m.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(m.tenants))
	}
	for name, tc := range m.tenants {
		ts := TenantStats{
			Runs:     tc.runs.Load(),
			Rejects:  tc.rejects.Load(),
			InFlight: tc.inFlight.Load(),
			Steps:    tc.steps.Load(),
			Allocs:   tc.allocs.Load(),
		}
		for k := range tc.kills {
			if n := tc.kills[k].Load(); n > 0 {
				if ts.Kills == nil {
					ts.Kills = make(map[string]uint64)
				}
				ts.Kills[rt.Kill(k).String()] = n
				st.Kills[rt.Kill(k).String()] += n
			}
		}
		st.Tenants[name] = ts
	}
	m.tmu.Unlock()
	st.StepLimitKills = st.Kills[rt.KillStepLimit.String()]
	st.AllocLimitKills = st.Kills[rt.KillAllocLimit.String()]
	st.InterruptKills = st.Kills[rt.KillInterrupt.String()]
	st.DeadlineKills = st.Kills[rt.KillDeadline.String()]

	for s := range st.stages {
		st.stages[s] = m.stages[s].Snapshot()
	}
	digest := func(s stage) (int64, obs.LatencySummary) { return st.stages[s].SumNanos, st.stages[s].Summary() }
	st.CompileNanos, st.CompileLatency = digest(stageCompile)
	st.DecodeNanos, st.DecodeLatency = digest(stageDecode)
	st.VerifyNanos, st.VerifyLatency = digest(stageVerify)
	st.PrepareNanos, st.PrepareLatency = digest(stagePrepare)
	st.CompileBackendNanos, st.CompileBackendLatency = digest(stageCompileBackend)
	st.RunNanos, st.RunLatency = digest(stageRun)
	st.PeerFillNanos, st.PeerFillLatency = digest(stagePeerFill)
	st.WireDecodeStreamNanos, st.WireDecodeStreamLatency = digest(stageWireDecodeStream)
	return st
}

// writePrometheus renders st in the Prometheus text exposition format. In
// cluster mode every series carries a node="<name>" label so fleet
// scrapes stay per-node.
func writePrometheus(w io.Writer, st Stats) {
	p := obs.NewPromWriter(w).ConstLabel("node", st.Node)
	counter := func(name, help string, v uint64) { p.Family("counter", name, help, obs.Sample{Value: int64(v)}) }
	gauge := func(name, help string, v int64) { p.Family("gauge", name, help, obs.Sample{Value: v}) }

	counter("safetsa_compile_requests_total", "Compile requests received.", st.CompileRequests)
	counter("safetsa_cache_hits_total", "Compile requests served from the in-memory unit store.", st.CacheHits)
	counter("safetsa_disk_hits_total", "Compile requests served from the on-disk unit store.", st.DiskHits)
	counter("safetsa_compiles_total", "Producer pipelines actually run.", st.Compiles)
	counter("safetsa_coalesced_total", "Compile requests coalesced onto an in-flight compile.", st.Coalesced)
	counter("safetsa_compile_errors_total", "Failed producer pipelines.", st.CompileErrors)
	counter("safetsa_evictions_total", "Units evicted from the in-memory store.", st.Evictions)
	gauge("safetsa_compiles_in_flight", "Producer pipelines currently running.", st.CompilesInFlight)
	gauge("safetsa_units_cached", "Encoded units resident in the in-memory store.", int64(st.UnitsCached))

	counter("safetsa_peer_fills_total", "Units fetched from a fleet peer and admitted by local re-verification.", st.PeerFills)
	counter("safetsa_peer_fill_errors_total", "Peer unit fetches that failed before admission.", st.PeerFillErrors)
	counter("safetsa_peer_fill_rejects_total", "Peer-supplied units rejected by local decode+verify admission.", st.PeerFillRejects)

	counter("safetsa_loads_total", "Units decoded and verified by the loader.", st.Loads)
	counter("safetsa_loader_hits_total", "Run requests served from the decoded-module cache.", st.LoaderHits)
	counter("safetsa_load_errors_total", "Units rejected by decode or the verifier.", st.LoadErrors)
	counter("safetsa_loader_evicted_total", "Decoded modules evicted from the loader cache.", st.LoaderEvicted)
	gauge("safetsa_modules_loaded", "Decoded modules resident in the loader cache.", int64(st.ModulesLoaded))
	counter("safetsa_lowered_functions_total", "Function bodies run sessions lowered on first call, on both run doors.", st.LoweredFunctions)
	counter("safetsa_pulled_functions_total", "Function bodies run sessions decoded and admitted from a resident unit's bytes on first call.", st.PulledFunctions)

	counter("safetsa_runs_total", "Execution sessions started.", st.Runs)
	counter("safetsa_run_errors_total", "Execution sessions ending in a guest failure.", st.RunErrors)
	counter("safetsa_stream_rejects_total", "Streaming runs whose unit was rejected mid-stream; nothing cached.", st.StreamRejects)
	counter("safetsa_resident_streams_total", "Streaming runs whose tail was not decoded: the store already held the same bytes, admitted whole.", st.ResidentStreams)
	gauge("safetsa_runs_in_flight", "Execution sessions currently running.", st.RunsInFlight)
	counter("safetsa_guest_steps_total", "Interpreter steps executed by guest programs.", uint64(st.GuestSteps))
	counter("safetsa_guest_allocs_total", "Allocation units charged by guest programs.", uint64(st.GuestAllocs))

	// Per-tenant families render one sample per tenant in name order; the
	// kill counters carry the budget dimension too, every reason per
	// tenant in (reason, tenant) order, so scrapes see a fixed matrix.
	tenants := sortedKeys(st.Tenants)
	perTenant := func(typ, name, help string, v func(TenantStats) int64) {
		rows := make([]obs.Sample, len(tenants))
		for i, t := range tenants {
			rows[i] = obs.Sample{Labels: []string{"tenant", t}, Value: v(st.Tenants[t])}
		}
		p.Family(typ, name, help, rows...)
	}
	var kills []obs.Sample
	for k := rt.Kill(0); k < rt.NumKills; k++ {
		for _, t := range tenants {
			kills = append(kills, obs.Sample{
				Labels: []string{"reason", k.String(), "tenant", t},
				Value:  int64(st.Tenants[t].Kills[k.String()]),
			})
		}
	}
	p.Family("counter", "safetsa_guest_kills_total", "Guest sessions terminated by an exhausted budget, by reason and tenant.", kills...)

	counter("safetsa_pool_hits_total", "Run sessions served from a warm-session snapshot clone.", st.PoolHits)
	counter("safetsa_pool_builds_total", "Warm-session snapshots built, verified, and published.", st.PoolBuilds)
	counter("safetsa_pool_declines_total", "Runs declined by the pool because their budgets were below the init drain.", st.PoolDeclines)
	counter("safetsa_pool_verify_fails_total", "Warm-session snapshots rejected by publish-time self-verification.", st.PoolVerifyFails)
	counter("safetsa_pool_evictions_total", "Warm-session snapshots dropped with their unit when the loader cache let go of it.", st.PoolEvictions)
	gauge("safetsa_pool_sessions", "Warm-session snapshots resident in the pool.", int64(st.PoolSessions))

	var gives []obs.Sample
	for _, name := range sortedKeys(st.StockGives) {
		c := st.StockGives[name]
		gives = append(gives,
			obs.Sample{Labels: []string{"stock", name, "outcome", "kept"}, Value: int64(c.Kept)},
			obs.Sample{Labels: []string{"stock", name, "outcome", "dropped"}, Value: int64(c.Dropped)})
	}
	p.Family("counter", "safetsa_stock_gives_total", "Recycled items given back to a process-wide stock, kept for reuse or dropped over the stock's byte cap.", gives...)

	counter("safetsa_tenant_rejects_total", "Runs rejected by the per-tenant fair-admission gate.", st.TenantRejects)
	perTenant("counter", "safetsa_tenant_runs_total", "Run sessions accounted per tenant.", func(t TenantStats) int64 { return int64(t.Runs) })
	perTenant("counter", "safetsa_tenant_throttled_total", "Fair-admission rejections per tenant.", func(t TenantStats) int64 { return int64(t.Rejects) })
	perTenant("counter", "safetsa_tenant_steps_total", "Interpreter steps drained per tenant.", func(t TenantStats) int64 { return t.Steps })
	perTenant("counter", "safetsa_tenant_allocs_total", "Allocation units drained per tenant.", func(t TenantStats) int64 { return t.Allocs })
	perTenant("gauge", "safetsa_tenant_runs_in_flight", "Run sessions currently in flight per tenant.", func(t TenantStats) int64 { return t.InFlight })

	stages := make(map[string]obs.HistogramSnapshot, numStages)
	for s, h := range st.stages {
		stages[stageNames[s]] = h
	}
	p.HistogramVec("safetsa_stage_duration_seconds", "Pipeline stage latency.", "stage", stages)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
