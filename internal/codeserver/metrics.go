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
// every request path: n holds each counter and gauge of metrics at its
// handle, added to at a constant index (m.n[mRuns].Add(1)). It has one
// reader, snapshot: GET /stats serves the Stats it cuts, GET /metrics
// renders that same value (writePrometheus), and gossip rows embed it.
type Metrics struct {
	// node is the fleet identity stamped onto every Prometheus series
	// and the stats snapshot ("" for a single-node server: no label).
	node string
	n    [numMetrics]atomic.Int64

	// Per-tenant rows, lazily grown and bounded: beyond maxTenants, rows
	// fold into the "overflow" tenant so a tenant-id flood cannot grow the
	// map without bound.
	tmu     sync.Mutex
	tenants map[string]*tenantCounters

	// stages holds one latency histogram per pipeline stage.
	stages [numStages]obs.Histogram
}

// metric is the handle of one server-wide /metrics family: its index in
// metrics and, for a counted one, in Metrics.n.
type metric int

const (
	mCompileRequests metric = iota
	mCacheHits
	mDiskHits
	mCompiles
	mCoalesced
	mCompileErrors
	mEvictions
	mCompilesInFlight
	mUnitsCached
	mPeerFills
	mPeerFillErrors
	mPeerFillRejects
	mLoads
	mLoaderHits
	mLoadErrors
	mLoaderEvicted
	mModulesLoaded
	mLoweredFunctions
	mPulledFunctions
	mRuns
	mRunErrors
	mStreamRejects
	mResidentStreams
	mRunsInFlight
	mGuestSteps
	mGuestAllocs
	mGuestKills
	mPoolHits
	mPoolBuilds
	mPoolDeclines
	mPoolVerifyFails
	mPoolEvictions
	mPoolSessions
	mStockGives
	mTenantRejects
	numMetrics
)

const counter, gauge = "counter", "gauge"

// A family declares one /metrics family: its type, name, help text and
// the field of S that carries it. A uint64 or int64 field is counted at
// the entry's handle; an int field is an occupancy Server.Stats fills in;
// a map field is a composite family, one sample per key (samples).
type family[S any] struct {
	kind, name, help string
	field            func(*S) any
}

// metrics is every server-wide family, the one spelling of each: adding
// one takes a Stats field and an entry here.
var metrics = [numMetrics]family[Stats]{
	mCompileRequests:  {counter, "safetsa_compile_requests_total", "Compile requests received.", func(s *Stats) any { return &s.CompileRequests }},
	mCacheHits:        {counter, "safetsa_cache_hits_total", "Compile requests served from the in-memory unit store.", func(s *Stats) any { return &s.CacheHits }},
	mDiskHits:         {counter, "safetsa_disk_hits_total", "Compile requests served from the on-disk unit store.", func(s *Stats) any { return &s.DiskHits }},
	mCompiles:         {counter, "safetsa_compiles_total", "Producer pipelines actually run.", func(s *Stats) any { return &s.Compiles }},
	mCoalesced:        {counter, "safetsa_coalesced_total", "Compile requests coalesced onto an in-flight compile.", func(s *Stats) any { return &s.Coalesced }},
	mCompileErrors:    {counter, "safetsa_compile_errors_total", "Failed producer pipelines.", func(s *Stats) any { return &s.CompileErrors }},
	mEvictions:        {counter, "safetsa_evictions_total", "Units evicted from the in-memory store.", func(s *Stats) any { return &s.Evictions }},
	mCompilesInFlight: {gauge, "safetsa_compiles_in_flight", "Producer pipelines currently running.", func(s *Stats) any { return &s.CompilesInFlight }},
	mUnitsCached:      {gauge, "safetsa_units_cached", "Encoded units resident in the in-memory store.", func(s *Stats) any { return &s.UnitsCached }},
	mPeerFills:        {counter, "safetsa_peer_fills_total", "Units fetched from a fleet peer and admitted by local re-verification.", func(s *Stats) any { return &s.PeerFills }},
	mPeerFillErrors:   {counter, "safetsa_peer_fill_errors_total", "Peer unit fetches that failed before admission.", func(s *Stats) any { return &s.PeerFillErrors }},
	mPeerFillRejects:  {counter, "safetsa_peer_fill_rejects_total", "Peer-supplied units rejected by local decode+verify admission.", func(s *Stats) any { return &s.PeerFillRejects }},
	mLoads:            {counter, "safetsa_loads_total", "Units decoded and verified by the loader.", func(s *Stats) any { return &s.Loads }},
	mLoaderHits:       {counter, "safetsa_loader_hits_total", "Run requests served from the decoded-module cache.", func(s *Stats) any { return &s.LoaderHits }},
	mLoadErrors:       {counter, "safetsa_load_errors_total", "Units rejected by decode or the verifier.", func(s *Stats) any { return &s.LoadErrors }},
	mLoaderEvicted:    {counter, "safetsa_loader_evicted_total", "Decoded modules evicted from the loader cache.", func(s *Stats) any { return &s.LoaderEvicted }},
	mModulesLoaded:    {gauge, "safetsa_modules_loaded", "Decoded modules resident in the loader cache.", func(s *Stats) any { return &s.ModulesLoaded }},
	mLoweredFunctions: {counter, "safetsa_lowered_functions_total", "Function bodies run sessions lowered on first call, on both run doors.", func(s *Stats) any { return &s.LoweredFunctions }},
	mPulledFunctions:  {counter, "safetsa_pulled_functions_total", "Function bodies run sessions decoded and admitted from a resident unit's bytes on first call.", func(s *Stats) any { return &s.PulledFunctions }},
	mRuns:             {counter, "safetsa_runs_total", "Execution sessions started.", func(s *Stats) any { return &s.Runs }},
	mRunErrors:        {counter, "safetsa_run_errors_total", "Execution sessions ending in a guest failure.", func(s *Stats) any { return &s.RunErrors }},
	mStreamRejects:    {counter, "safetsa_stream_rejects_total", "Streaming runs whose unit was rejected mid-stream; nothing cached.", func(s *Stats) any { return &s.StreamRejects }},
	mResidentStreams:  {counter, "safetsa_resident_streams_total", "Streaming runs whose tail was not decoded: the store already held the same bytes, admitted whole.", func(s *Stats) any { return &s.ResidentStreams }},
	mRunsInFlight:     {gauge, "safetsa_runs_in_flight", "Execution sessions currently running.", func(s *Stats) any { return &s.RunsInFlight }},
	mGuestSteps:       {counter, "safetsa_guest_steps_total", "Interpreter steps executed by guest programs.", func(s *Stats) any { return &s.GuestSteps }},
	mGuestAllocs:      {counter, "safetsa_guest_allocs_total", "Allocation units charged by guest programs.", func(s *Stats) any { return &s.GuestAllocs }},
	mGuestKills:       {counter, "safetsa_guest_kills_total", "Guest sessions terminated by an exhausted budget, by reason and tenant.", func(s *Stats) any { return &s.Tenants }},
	mPoolHits:         {counter, "safetsa_pool_hits_total", "Run sessions served from a warm-session snapshot clone.", func(s *Stats) any { return &s.PoolHits }},
	mPoolBuilds:       {counter, "safetsa_pool_builds_total", "Warm-session snapshots built, verified, and published.", func(s *Stats) any { return &s.PoolBuilds }},
	mPoolDeclines:     {counter, "safetsa_pool_declines_total", "Runs declined by the pool because their budgets were below the init drain.", func(s *Stats) any { return &s.PoolDeclines }},
	mPoolVerifyFails:  {counter, "safetsa_pool_verify_fails_total", "Warm-session snapshots rejected by publish-time self-verification.", func(s *Stats) any { return &s.PoolVerifyFails }},
	mPoolEvictions:    {counter, "safetsa_pool_evictions_total", "Warm-session snapshots dropped with their unit when the loader cache let go of it.", func(s *Stats) any { return &s.PoolEvictions }},
	mPoolSessions:     {gauge, "safetsa_pool_sessions", "Warm-session snapshots resident in the pool.", func(s *Stats) any { return &s.PoolSessions }},
	mStockGives:       {counter, "safetsa_stock_gives_total", "Recycled items given back to a process-wide stock, kept for reuse or dropped over the stock's byte cap.", func(s *Stats) any { return &s.StockGives }},
	mTenantRejects:    {counter, "safetsa_tenant_rejects_total", "Runs rejected by the per-tenant fair-admission gate.", func(s *Stats) any { return &s.TenantRejects }},
}

// The handle of a per-tenant family: its index in tenantMetrics and in
// tenantCounters.n.
const (
	tRuns = iota
	tRejects
	tSteps
	tAllocs
	tInFlight
	numTenantMetrics
)

// tenantMetrics is every per-tenant family, one sample per tenant.
var tenantMetrics = [numTenantMetrics]family[TenantStats]{
	tRuns:     {counter, "safetsa_tenant_runs_total", "Run sessions accounted per tenant.", func(t *TenantStats) any { return &t.Runs }},
	tRejects:  {counter, "safetsa_tenant_throttled_total", "Fair-admission rejections per tenant.", func(t *TenantStats) any { return &t.Rejects }},
	tSteps:    {counter, "safetsa_tenant_steps_total", "Interpreter steps drained per tenant.", func(t *TenantStats) any { return &t.Steps }},
	tAllocs:   {counter, "safetsa_tenant_allocs_total", "Allocation units drained per tenant.", func(t *TenantStats) any { return &t.Allocs }},
	tInFlight: {gauge, "safetsa_tenant_runs_in_flight", "Run sessions currently in flight per tenant.", func(t *TenantStats) any { return &t.InFlight }},
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
	m.n[mLoweredFunctions].Add(int64(lw.Funcs))
	m.stages[stagePrepare].Observe(lw.Flatten)
	m.stages[stageCompileBackend].Observe(lw.Fuse)
}

// DefaultTenant is the accounting identity of run requests that carry
// no tenant field.
const DefaultTenant = "anon"

// maxTenants bounds the per-tenant metrics map; the first maxTenants
// distinct tenant ids get their own rows, later ones share "overflow".
const maxTenants = 256

// tenantCounters is one tenant's accounting row: n holds each of
// tenantMetrics at its handle.
type tenantCounters struct {
	n [numTenantMetrics]atomic.Int64
	// kills is indexed by reason: rt's list of kills is the only one, so
	// a reason added there is counted and rendered here.
	kills [rt.NumKills]atomic.Uint64
}

// tenant returns (creating on first sight) the counters row for name.
func (m *Metrics) tenant(name string) *tenantCounters {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tc, ok := m.tenants[name]
	if !ok && len(m.tenants) >= maxTenants {
		name = "overflow"
		tc, ok = m.tenants[name]
	}
	if !ok {
		if m.tenants == nil {
			m.tenants = make(map[string]*tenantCounters)
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

	// Cluster peer-fill path: units fetched from a fleet peer and admitted
	// by local decode+verify, fetches that failed before admission, and
	// peer bytes admission rejected, which never reach either cache tier.
	PeerFills       uint64 `json:"peer_fills"`
	PeerFillErrors  uint64 `json:"peer_fill_errors"`
	PeerFillRejects uint64 `json:"peer_fill_rejects"`

	// Consumer side (loader cache + execution sessions).
	Loads         uint64 `json:"loads"`
	LoaderHits    uint64 `json:"loader_hits"`
	LoadErrors    uint64 `json:"load_errors"`
	LoaderEvicted uint64 `json:"loader_evicted"`
	ModulesLoaded int    `json:"modules_loaded"`
	// LoweredFunctions counts each function body once per form, however
	// many sessions raced to call it first (interp.Loader.lower).
	LoweredFunctions uint64 `json:"lowered_functions"`
	// PulledFunctions counts the bodies pulled through a resident unit's
	// cursor on first call, once per load (LoaderCache.pull).
	PulledFunctions uint64 `json:"pulled_functions"`
	Runs            uint64 `json:"runs"`
	RunErrors       uint64 `json:"run_errors"`
	RunsInFlight    int64  `json:"runs_in_flight"`
	StreamRejects   uint64 `json:"stream_rejects"`
	// ResidentStreams counts streaming runs whose tail the store vouched
	// for (Server.tail).
	ResidentStreams uint64 `json:"resident_streams"`

	// Guest budget accounting. Kills holds every reason that has killed a
	// session, summed over the tenant rows; the four *Kills keys are the
	// legacy spelling of four of its entries.
	GuestSteps      int64             `json:"guest_steps"`
	GuestAllocs     int64             `json:"guest_allocs"`
	Kills           map[string]uint64 `json:"kills,omitempty"`
	StepLimitKills  uint64            `json:"step_limit_kills"`
	AllocLimitKills uint64            `json:"alloc_limit_kills"`
	InterruptKills  uint64            `json:"interrupt_kills"`
	DeadlineKills   uint64            `json:"deadline_kills"`

	// Warm-session pool (PoolVerifyFails is an alarm, 0 when healthy).
	// PoolSessions, the loaded units holding a snapshot, is the server's.
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
	st := Stats{Node: m.node, Kills: map[string]uint64{}}
	for h := range m.n {
		count(metrics[h].field(&st), m.n[h].Load())
	}
	m.tmu.Lock()
	st.Tenants = make(map[string]TenantStats, len(m.tenants))
	for name, tc := range m.tenants {
		ts := TenantStats{Kills: map[string]uint64{}}
		for h := range tc.n {
			count(tenantMetrics[h].field(&ts), tc.n[h].Load())
		}
		for k := range tc.kills {
			if n := tc.kills[k].Load(); n > 0 {
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

// count stores v in the field p points to if it is a counted one.
func count(p any, v int64) {
	switch p := p.(type) {
	case *uint64:
		*p = uint64(v)
	case *int64:
		*p = v
	}
}

// samples renders the field p points to as its family's samples, each
// carrying labels: one for a scalar; for the tenant rows, their kills,
// every reason per tenant in (reason, tenant) order so scrapes see a
// fixed matrix; for the stocks, each stock's kept and dropped gives.
func samples(p any, labels ...string) []obs.Sample {
	var out []obs.Sample
	switch p := p.(type) {
	case *uint64:
		return []obs.Sample{{Labels: labels, Value: int64(*p)}}
	case *int64:
		return []obs.Sample{{Labels: labels, Value: *p}}
	case *int:
		return []obs.Sample{{Labels: labels, Value: int64(*p)}}
	case *map[string]TenantStats:
		tenants := sortedKeys(*p)
		for k := rt.Kill(0); k < rt.NumKills; k++ {
			for _, t := range tenants {
				out = append(out, obs.Sample{Labels: []string{"reason", k.String(), "tenant", t}, Value: int64((*p)[t].Kills[k.String()])})
			}
		}
	case *map[string]core.StockCount:
		for _, name := range sortedKeys(*p) {
			c := (*p)[name]
			out = append(out,
				obs.Sample{Labels: []string{"stock", name, "outcome", "kept"}, Value: int64(c.Kept)},
				obs.Sample{Labels: []string{"stock", name, "outcome", "dropped"}, Value: int64(c.Dropped)})
		}
	}
	return out
}

// writePrometheus renders st in the Prometheus text exposition format.
// In cluster mode every series carries a node="<name>" label so fleet
// scrapes stay per-node.
func writePrometheus(w io.Writer, st Stats) {
	p := obs.NewPromWriter(w).ConstLabel("node", st.Node)
	for _, f := range metrics {
		p.Family(f.kind, f.name, f.help, samples(f.field(&st))...)
	}
	tenants := sortedKeys(st.Tenants)
	for _, f := range tenantMetrics {
		var rows []obs.Sample
		for _, t := range tenants {
			ts := st.Tenants[t]
			rows = append(rows, samples(f.field(&ts), "tenant", t)...)
		}
		p.Family(f.kind, f.name, f.help, rows...)
	}
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
