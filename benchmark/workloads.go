package main

import (
	"fmt"
	"math/rand"

	"safetsa/internal/codeserver"
)

// opKind is what one client operation asks of the server.
type opKind uint8

const (
	kindCompile       opKind = iota // POST /compile of sources the store has never seen
	kindCompileCached               // POST /compile of sources already in the store
	kindRun                         // POST /run/{hash}
	kindStream                      // POST /run-stream with the unit's raw bytes
	numKinds
)

var kindNames = [numKinds]string{"compile", "compile_cached", "run", "run_stream"}

type op struct {
	kind   opKind
	prog   *program
	salt   string // makes a kindCompile request a store miss
	tenant int
}

// counters are the /stats fields the benchmark reads, by name; the
// stage sums are under "nanos.<stage>". The benchmark works with their
// differences across the timed rounds.
type counters map[string]float64

func readCounters(st codeserver.Stats) counters {
	return counters{
		"compile_requests":         float64(st.CompileRequests),
		"cached_compiles":          float64(st.CacheHits + st.DiskHits),
		"compiles":                 float64(st.Compiles),
		"evictions":                float64(st.Evictions),
		"loads":                    float64(st.Loads),
		"loader_hits":              float64(st.LoaderHits),
		"loader_evicted":           float64(st.LoaderEvicted),
		"runs":                     float64(st.Runs),
		"stream_rejects":           float64(st.StreamRejects),
		"kills":                    float64(st.StepLimitKills + st.AllocLimitKills + st.InterruptKills + st.DeadlineKills),
		"tenant_rejects":           float64(st.TenantRejects),
		"guest_steps":              float64(st.GuestSteps),
		"guest_allocs":             float64(st.GuestAllocs),
		"pool_hits":                float64(st.PoolHits),
		"pool_builds":              float64(st.PoolBuilds),
		"pool_declines":            float64(st.PoolDeclines),
		"nanos.compile":            float64(st.CompileNanos),
		"nanos.decode":             float64(st.DecodeNanos),
		"nanos.verify":             float64(st.VerifyNanos),
		"nanos.prepare":            float64(st.PrepareNanos),
		"nanos.compile_backend":    float64(st.CompileBackendNanos),
		"nanos.run":                float64(st.RunNanos),
		"nanos.wire_decode_stream": float64(st.WireDecodeStreamNanos),
	}
}

func (a counters) minus(b counters) counters {
	d := counters{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// workload is one traffic mix. Each exists to put its cost in
// different layers, so that a change to one layer moves one workload
// and is predicted to leave another alone.
type workload struct {
	name string
	why  string
	// opsPerRound is the size of one timed round at scale 1, where the
	// timed rounds together take about fullScaleSeconds on the 2-core
	// box the counts were sized on. -seconds scales all workloads alike.
	opsPerRound int
	// config adjusts the fixed deployment (nil: unchanged).
	config func(*codeserver.Config)
	// cold says a run finds nothing of its unit decoded or pooled.
	cold bool
	// universe is the set of programs the workload touches.
	universe func(*inputs) []*program
	// kinds are the operations one pass over the universe issues per
	// program: the warm-up, and the traced pass.
	kinds []opKind
	// cycle is the number of operations after which a client's sequence
	// repeats; a round is a whole number of cycles.
	cycle func(*inputs) int
	// ops gives client c its n operations for a timed round. Every round
	// is the same sequence (only the salts differ), so that rounds can
	// be compared with each other.
	ops func(in *inputs, round, c, n int) []op
	// check tests, from the /stats delta of the timed rounds, that the
	// run was in the regime the workload is meant to measure.
	check func(d counters, ops float64) []string
}

const (
	fullScaleSeconds = 22.5
	timedRounds      = 10
)

func small(in *inputs) []*program { return in.uSmall }

// half is client c's share of the small universe. 23 units per client
// against caches of 16 means a unit is always evicted before its turn
// comes round again, whatever the other client does.
func half(in *inputs, c int) []*program {
	var h []*program
	for i := c; i < len(in.uSmall); i += numClients {
		h = append(h, in.uSmall[i])
	}
	return h
}

func smallCaches(cfg *codeserver.Config) {
	cfg.MaxModules = 16
	cfg.PoolUnits = 16
}

func halfCycle(in *inputs) int { return len(half(in, 0)) }

func cycleHalf(kind opKind) func(in *inputs, round, c, n int) []op {
	return func(in *inputs, round, c, n int) []op {
		h := half(in, c)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kind: kind, prog: h[i%len(h)], tenant: (i + c) % numTenants}
		}
		return ops
	}
}

func expect(fails *[]string, ok bool, format string, args ...any) {
	if !ok {
		*fails = append(*fails, fmt.Sprintf(format, args...))
	}
}

func checkHot(d counters, ops float64) []string {
	var f []string
	expect(&f, d["runs"] > 0 && d["pool_hits"]/d["runs"] >= 0.99, "pool hit ratio %.4f, want >= 0.99", d["pool_hits"]/d["runs"])
	expect(&f, d["loads"] == 0, "%v loads in the timed rounds, want 0", d["loads"])
	return f
}

var workloads = []workload{
	{
		name: "produce_cold",
		why: "every compile is a store miss: front end, ssabuild, opt, wire encode and the store's fill and evict path do all the work; " +
			"no decoder or engine runs, so consumer-side changes should not move it",
		opsPerRound: 600,
		universe:    func(in *inputs) []*program { return in.u },
		kinds:       []opKind{kindCompile},
		cycle:       func(in *inputs) int { return len(in.u) / numClients },
		ops: func(in *inputs, round, c, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{
					kind: kindCompile,
					prog: in.u[(numClients*i+c)%len(in.u)],
					salt: fmt.Sprintf("%d-%d-%d-%d", in.seed, round, c, i),
				}
			}
			return ops
		},
		check: func(d counters, ops float64) []string {
			var f []string
			expect(&f, d["cached_compiles"] == 0, "%v cached compiles, want 0", d["cached_compiles"])
			expect(&f, d["compiles"] == ops, "%v compiles for %v ops", d["compiles"], ops)
			expect(&f, d["runs"] == 0, "%v runs, want 0", d["runs"])
			return f
		},
	},
	{
		name: "consume_cold",
		why: "working set larger than loader cache and session pool: every run pays decode, verify, prepare, closure compile, " +
			"load, static init and snapshot build before a short guest, the first-contact cost",
		opsPerRound: 1600,
		config:      smallCaches,
		cold:        true,
		universe:    small,
		kinds:       []opKind{kindRun},
		cycle:       halfCycle,
		ops:         cycleHalf(kindRun),
		check: func(d counters, ops float64) []string {
			var f []string
			expect(&f, d["loader_hits"] == 0, "%v loader hits, want 0", d["loader_hits"])
			expect(&f, d["pool_hits"] == 0, "%v pool hits, want 0", d["pool_hits"])
			expect(&f, d["loads"] == ops, "%v loads for %v runs", d["loads"], ops)
			return f
		},
	},
	{
		name: "consume_stream",
		why: "the same units sent as raw bytes to /run-stream: streaming decode and verify overlapped with a reference-engine session, " +
			"the only path that bypasses the loader cache and the pool",
		opsPerRound: 1600,
		config:      smallCaches,
		universe:    small,
		kinds:       []opKind{kindStream},
		cycle:       halfCycle,
		ops:         cycleHalf(kindStream),
		check: func(d counters, ops float64) []string {
			var f []string
			expect(&f, d["loads"] == 0, "%v loads, want 0", d["loads"])
			expect(&f, d["stream_rejects"] == 0, "%v stream rejects, want 0", d["stream_rejects"])
			expect(&f, d["pool_hits"] == 0, "%v pool hits, want 0", d["pool_hits"])
			return f
		},
	},
	{
		name: "run_hot_compute",
		why: "six resident, pooled guests of 0.5-1.5 M steps each: nearly all time is inside the engine's dispatch loop; " +
			"producer, wire and caches are bypassed",
		opsPerRound: 150,
		universe:    func(in *inputs) []*program { return in.g },
		kinds:       []opKind{kindRun},
		cycle:       func(in *inputs) int { return len(in.g) },
		ops: func(in *inputs, round, c, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				// The clients walk the guests a part of the cycle apart.
				ops[i] = op{kind: kindRun, prog: in.g[(i+c*len(in.g)/numClients)%len(in.g)], tenant: (i + c) % numTenants}
			}
			return ops
		},
		check: checkHot,
	},
	{
		name: "serve_hot",
		why: "zipf-skewed 80/20 mix of runs and cached compiles over small resident units: guests are tiny, so HTTP, JSON, " +
			"key hashing, admission, tenant accounting and snapshot clone are at least half the cost",
		opsPerRound: 18000,
		universe:    small,
		kinds:       []opKind{kindRun, kindCompileCached},
		cycle:       func(*inputs) int { return 1 },
		ops: func(in *inputs, round, c, n int) []op {
			r := rand.New(rand.NewSource(in.seed*1_000_003 + int64(c)))
			z := rand.NewZipf(r, 1.2, 1, uint64(len(in.uSmall)-1))
			ops := make([]op, n)
			for i := range ops {
				kind := kindRun
				if r.Float64() >= 0.8 {
					kind = kindCompileCached
				}
				ops[i] = op{kind: kind, prog: in.uSmall[z.Uint64()], tenant: r.Intn(numTenants)}
			}
			return ops
		},
		check: checkHot,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// checkCommon holds for every workload.
func checkCommon(d counters, ops float64) []string {
	var f []string
	expect(&f, d["kills"] == 0, "%v guest kills, want 0", d["kills"])
	expect(&f, d["tenant_rejects"] == 0, "%v tenant rejects, want 0", d["tenant_rejects"])
	expect(&f, d["runs"]+d["compile_requests"] == ops, "%v runs + %v compile requests for %v ops", d["runs"], d["compile_requests"], ops)
	return f
}

// passOps is one pass over the workload's universe: every program,
// every kind the workload issues. salt keeps compiles store misses.
func (w *workload) passOps(in *inputs, salt string) []op {
	var ops []op
	for i, p := range w.universe(in) {
		for _, k := range w.kinds {
			ops = append(ops, op{kind: k, prog: p, salt: fmt.Sprintf("%s-%d", salt, i), tenant: i % numTenants})
		}
	}
	return ops
}
