package codeserver

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"safetsa/internal/obs"
	"safetsa/internal/rt"
)

// Metrics is the server-wide instrumentation, updated with atomics on
// every request path so it is safe under full concurrency. Per-stage
// latencies are obs.Histograms (lock-free fixed buckets); the legacy
// cumulative *Nanos fields of Stats are derived from their sums, so the
// old JSON keys survive with identical meaning. Stats() returns a
// consistent-enough snapshot for monitoring and tests.
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

	runs         atomic.Uint64
	runErrors    atomic.Uint64
	runsInFlight atomic.Int64

	// streamRejects counts streaming runs whose unit was rejected at any
	// point in the stream (header, tables, a function the verifier
	// refused, truncation, trailing garbage). Rejected bytes never reach
	// either cache tier.
	streamRejects atomic.Uint64

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
	// in a healthy server), and LRU evictions.
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

	// Per-stage latency histograms. compileHist covers the whole
	// producer pipeline (one sample per actual compile); decodeHist,
	// verifyHist, prepareHist, and compileBackendHist the consumer
	// loader stages (one sample per load attempt — preparation and
	// backend compilation are shared by every session of a unit, so
	// their counts track loads, not runs); runHist one sample per
	// execution session.
	compileHist        obs.Histogram
	decodeHist         obs.Histogram
	verifyHist         obs.Histogram
	prepareHist        obs.Histogram
	compileBackendHist obs.Histogram
	runHist            obs.Histogram
	peerFillHist       obs.Histogram // one sample per peer fetch+admission attempt
	// wireDecodeStreamHist covers the whole streaming decode of one
	// /run-stream unit, first header byte to final admission (or
	// rejection) — it overlaps guest execution by design.
	wireDecodeStreamHist obs.Histogram
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

// tenantRows snapshots the per-tenant map in sorted name order.
func (m *Metrics) tenantRows() []tenantRow {
	m.tmu.Lock()
	rows := make([]tenantRow, 0, len(m.tenants))
	for name, tc := range m.tenants {
		rows = append(rows, tenantRow{name: name, tc: tc})
	}
	m.tmu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

type tenantRow struct {
	name string
	tc   *tenantCounters
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
// in by the component that owns them. It is what GET /stats serves.
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
	Runs          uint64 `json:"runs"`
	RunErrors     uint64 `json:"run_errors"`
	RunsInFlight  int64  `json:"runs_in_flight"`
	StreamRejects uint64 `json:"stream_rejects"`

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

	// Warm-session pool (see Metrics). PoolSessions is the resident
	// snapshot count, filled in by the server.
	PoolHits        uint64 `json:"pool_hits"`
	PoolBuilds      uint64 `json:"pool_builds"`
	PoolDeclines    uint64 `json:"pool_declines"`
	PoolVerifyFails uint64 `json:"pool_verify_fails"`
	PoolEvictions   uint64 `json:"pool_evictions"`
	PoolSessions    int    `json:"pool_sessions"`

	// Multi-tenant accounting: total fair-admission rejections plus the
	// per-tenant breakdown.
	TenantRejects uint64                 `json:"tenant_rejects"`
	Tenants       map[string]TenantStats `json:"tenants,omitempty"`

	// Cumulative latencies (nanoseconds) over all requests. Legacy keys:
	// derived from the histogram sums so they keep increasing exactly as
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
}

func (m *Metrics) snapshot() Stats {
	compile := m.compileHist.Snapshot()
	decode := m.decodeHist.Snapshot()
	verify := m.verifyHist.Snapshot()
	prepare := m.prepareHist.Snapshot()
	compileBackend := m.compileBackendHist.Snapshot()
	run := m.runHist.Snapshot()
	peerFill := m.peerFillHist.Snapshot()
	wireStream := m.wireDecodeStreamHist.Snapshot()
	tenants := m.tenantStats()
	kills := map[string]uint64{}
	for _, ts := range tenants {
		for reason, n := range ts.Kills {
			kills[reason] += n
		}
	}
	return Stats{
		Node:                    m.node,
		CompileRequests:         m.compileRequests.Load(),
		CacheHits:               m.cacheHits.Load(),
		DiskHits:                m.diskHits.Load(),
		Compiles:                m.compiles.Load(),
		Coalesced:               m.coalesced.Load(),
		CompileErrors:           m.compileErrors.Load(),
		CompilesInFlight:        m.compilesInFlight.Load(),
		Evictions:               m.evictions.Load(),
		PeerFills:               m.peerFills.Load(),
		PeerFillErrors:          m.peerFillErrors.Load(),
		PeerFillRejects:         m.peerFillRejects.Load(),
		Loads:                   m.loads.Load(),
		LoaderHits:              m.loaderHits.Load(),
		LoadErrors:              m.loadErrors.Load(),
		LoaderEvicted:           m.loaderEvict.Load(),
		Runs:                    m.runs.Load(),
		RunErrors:               m.runErrors.Load(),
		RunsInFlight:            m.runsInFlight.Load(),
		StreamRejects:           m.streamRejects.Load(),
		GuestSteps:              m.guestSteps.Load(),
		GuestAllocs:             m.guestAllocs.Load(),
		Kills:                   kills,
		StepLimitKills:          kills[rt.KillStepLimit.String()],
		AllocLimitKills:         kills[rt.KillAllocLimit.String()],
		InterruptKills:          kills[rt.KillInterrupt.String()],
		DeadlineKills:           kills[rt.KillDeadline.String()],
		PoolHits:                m.poolHits.Load(),
		PoolBuilds:              m.poolBuilds.Load(),
		PoolDeclines:            m.poolDeclines.Load(),
		PoolVerifyFails:         m.poolVerifyFails.Load(),
		PoolEvictions:           m.poolEvictions.Load(),
		TenantRejects:           m.tenantRejects.Load(),
		Tenants:                 tenants,
		CompileNanos:            compile.SumNanos,
		DecodeNanos:             decode.SumNanos,
		VerifyNanos:             verify.SumNanos,
		PrepareNanos:            prepare.SumNanos,
		CompileBackendNanos:     compileBackend.SumNanos,
		RunNanos:                run.SumNanos,
		PeerFillNanos:           peerFill.SumNanos,
		WireDecodeStreamNanos:   wireStream.SumNanos,
		CompileLatency:          compile.Summary(),
		DecodeLatency:           decode.Summary(),
		VerifyLatency:           verify.Summary(),
		PrepareLatency:          prepare.Summary(),
		CompileBackendLatency:   compileBackend.Summary(),
		RunLatency:              run.Summary(),
		PeerFillLatency:         peerFill.Summary(),
		WireDecodeStreamLatency: wireStream.Summary(),
	}
}

// tenantStats snapshots the per-tenant rows for /stats.
func (m *Metrics) tenantStats() map[string]TenantStats {
	rows := m.tenantRows()
	if len(rows) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(rows))
	for _, r := range rows {
		ts := TenantStats{
			Runs:     r.tc.runs.Load(),
			Rejects:  r.tc.rejects.Load(),
			InFlight: r.tc.inFlight.Load(),
			Steps:    r.tc.steps.Load(),
			Allocs:   r.tc.allocs.Load(),
		}
		for k := range r.tc.kills {
			if n := r.tc.kills[k].Load(); n > 0 {
				if ts.Kills == nil {
					ts.Kills = make(map[string]uint64)
				}
				ts.Kills[rt.Kill(k).String()] = n
			}
		}
		out[r.name] = ts
	}
	return out
}

// WritePrometheus renders the full metric surface in the Prometheus text
// exposition format. unitsCached, modulesLoaded, and poolSessions are
// the cache occupancies owned by the store, loader, and warm-session
// pool. In cluster mode every series carries a node="<name>" label so
// fleet scrapes stay per-node.
func (m *Metrics) WritePrometheus(w io.Writer, unitsCached, modulesLoaded, poolSessions int) {
	p := obs.NewPromWriter(w).ConstLabel("node", m.node)
	p.Counter("safetsa_compile_requests_total", "Compile requests received.", m.compileRequests.Load())
	p.Counter("safetsa_cache_hits_total", "Compile requests served from the in-memory unit store.", m.cacheHits.Load())
	p.Counter("safetsa_disk_hits_total", "Compile requests served from the on-disk unit store.", m.diskHits.Load())
	p.Counter("safetsa_compiles_total", "Producer pipelines actually run.", m.compiles.Load())
	p.Counter("safetsa_coalesced_total", "Compile requests coalesced onto an in-flight compile.", m.coalesced.Load())
	p.Counter("safetsa_compile_errors_total", "Failed producer pipelines.", m.compileErrors.Load())
	p.Counter("safetsa_evictions_total", "Units evicted from the in-memory store.", m.evictions.Load())
	p.Gauge("safetsa_compiles_in_flight", "Producer pipelines currently running.", m.compilesInFlight.Load())
	p.Gauge("safetsa_units_cached", "Encoded units resident in the in-memory store.", int64(unitsCached))

	p.Counter("safetsa_peer_fills_total", "Units fetched from a fleet peer and admitted by local re-verification.", m.peerFills.Load())
	p.Counter("safetsa_peer_fill_errors_total", "Peer unit fetches that failed before admission.", m.peerFillErrors.Load())
	p.Counter("safetsa_peer_fill_rejects_total", "Peer-supplied units rejected by local decode+verify admission.", m.peerFillRejects.Load())

	p.Counter("safetsa_loads_total", "Units decoded and verified by the loader.", m.loads.Load())
	p.Counter("safetsa_loader_hits_total", "Run requests served from the decoded-module cache.", m.loaderHits.Load())
	p.Counter("safetsa_load_errors_total", "Units rejected by decode or the verifier.", m.loadErrors.Load())
	p.Counter("safetsa_loader_evicted_total", "Decoded modules evicted from the loader cache.", m.loaderEvict.Load())
	p.Gauge("safetsa_modules_loaded", "Decoded modules resident in the loader cache.", int64(modulesLoaded))

	p.Counter("safetsa_runs_total", "Execution sessions started.", m.runs.Load())
	p.Counter("safetsa_run_errors_total", "Execution sessions ending in a guest failure.", m.runErrors.Load())
	p.Counter("safetsa_stream_rejects_total", "Streaming runs whose unit was rejected mid-stream; nothing cached.", m.streamRejects.Load())
	p.Gauge("safetsa_runs_in_flight", "Execution sessions currently running.", m.runsInFlight.Load())
	p.Counter("safetsa_guest_steps_total", "Interpreter steps executed by guest programs.", uint64(m.guestSteps.Load()))
	p.Counter("safetsa_guest_allocs_total", "Allocation units charged by guest programs.", uint64(m.guestAllocs.Load()))

	// Kill counters carry both the budget dimension and the tenant the
	// killed session was accounted to; rows render in (reason, tenant)
	// order, every reason emitted per tenant so scrapes see a fixed
	// matrix.
	tenants := m.tenantRows()
	var killRows []obs.LabeledCounter
	for k := rt.Kill(0); k < rt.NumKills; k++ {
		for _, tr := range tenants {
			killRows = append(killRows, obs.LabeledCounter{
				Labels: []string{"reason", k.String(), "tenant", tr.name},
				Value:  tr.tc.kills[k].Load(),
			})
		}
	}
	p.CounterRows("safetsa_guest_kills_total", "Guest sessions terminated by an exhausted budget, by reason and tenant.", killRows)

	p.Counter("safetsa_pool_hits_total", "Run sessions served from a warm-session snapshot clone.", m.poolHits.Load())
	p.Counter("safetsa_pool_builds_total", "Warm-session snapshots built, verified, and published.", m.poolBuilds.Load())
	p.Counter("safetsa_pool_declines_total", "Runs declined by the pool because their budgets were below the init drain.", m.poolDeclines.Load())
	p.Counter("safetsa_pool_verify_fails_total", "Warm-session snapshots rejected by publish-time self-verification.", m.poolVerifyFails.Load())
	p.Counter("safetsa_pool_evictions_total", "Warm-session snapshots evicted by the pool LRU.", m.poolEvictions.Load())
	p.Gauge("safetsa_pool_sessions", "Warm-session snapshots resident in the pool.", int64(poolSessions))

	p.Counter("safetsa_tenant_rejects_total", "Runs rejected by the per-tenant fair-admission gate.", m.tenantRejects.Load())
	tenantRuns := make(map[string]uint64, len(tenants))
	tenantRejects := make(map[string]uint64, len(tenants))
	tenantSteps := make(map[string]uint64, len(tenants))
	tenantAllocs := make(map[string]uint64, len(tenants))
	tenantInFlight := make(map[string]int64, len(tenants))
	for _, tr := range tenants {
		tenantRuns[tr.name] = tr.tc.runs.Load()
		tenantRejects[tr.name] = tr.tc.rejects.Load()
		tenantSteps[tr.name] = uint64(tr.tc.steps.Load())
		tenantAllocs[tr.name] = uint64(tr.tc.allocs.Load())
		tenantInFlight[tr.name] = tr.tc.inFlight.Load()
	}
	p.CounterVec("safetsa_tenant_runs_total", "Run sessions accounted per tenant.", "tenant", tenantRuns)
	p.CounterVec("safetsa_tenant_throttled_total", "Fair-admission rejections per tenant.", "tenant", tenantRejects)
	p.CounterVec("safetsa_tenant_steps_total", "Interpreter steps drained per tenant.", "tenant", tenantSteps)
	p.CounterVec("safetsa_tenant_allocs_total", "Allocation units drained per tenant.", "tenant", tenantAllocs)
	p.GaugeVec("safetsa_tenant_runs_in_flight", "Run sessions currently in flight per tenant.", "tenant", tenantInFlight)

	p.HistogramVec("safetsa_stage_duration_seconds", "Pipeline stage latency.", "stage",
		map[string]obs.HistogramSnapshot{
			"compile":            m.compileHist.Snapshot(),
			"decode":             m.decodeHist.Snapshot(),
			"verify":             m.verifyHist.Snapshot(),
			"prepare":            m.prepareHist.Snapshot(),
			"compile_backend":    m.compileBackendHist.Snapshot(),
			"run":                m.runHist.Snapshot(),
			"peer_fill":          m.peerFillHist.Snapshot(),
			"wire_decode_stream": m.wireDecodeStreamHist.Snapshot(),
		})
}
