package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is one invocation of the benchmark on one workload.
type options struct {
	workload *workload
	seed     int64
	// seconds is how long timedRounds rounds should take on the box the
	// op counts were sized on; it scales every workload alike.
	seconds float64
	// rounds is the number of timed rounds.
	rounds int
	trace  bool
	// outDir receives the report and, from a traced run, the span file
	// ("" writes nothing).
	outDir string
	// setupReps is how often set-up is repeated for the setup_s median.
	setupReps int
	// tracePasses is how many passes the traced run makes.
	tracePasses int
	// library, when set, is the outcome of an earlier layer pass on the
	// same seed. The library layers do not depend on the workload, so a
	// run over several workloads replays them once.
	library map[string]float64
	// mutate, when set, edits the inputs once set-up is over. Only the
	// test that checks the oracle uses it.
	mutate func(*inputs)
}

// setUp is everything between process start and the first timed
// operation: generate the inputs, compute the reference outputs, start
// the server, compile every unit on it, warm the workload up.
func setUp(opt *options, rec *recorder) (*inputs, *harness, int, error) {
	in, err := buildInputs(opt.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := baseConfig()
	if opt.workload.config != nil {
		opt.workload.config(&cfg)
	}
	h, err := startHarness(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	unitBytes, err := h.fill(in)
	if err == nil {
		_, err = h.round(rec, [][]op{opt.workload.passOps(in, "warm")})
	}
	if err != nil {
		h.stop()
		return nil, nil, 0, err
	}
	return in, h, unitBytes, nil
}

// measurement is the untraced part of a run: the last of the set-ups
// and what the timed rounds on it gave.
type measurement struct {
	in        *inputs
	h         *harness
	unitBytes int
	// setupS are the set-up times at reference machine speed,
	// setupRawS as the clock gave them.
	setupS, setupRawS []float64
	rounds            []*roundResult
	// kernelMs are the times of the machine kernel before the first
	// round and after every round.
	kernelMs []float64
	// ops is the number of operations the timed rounds attempted; delta
	// and usage are what the server counted and the process spent
	// across them.
	ops    float64
	delta  counters
	usage  processUsage
	before processUsage
}

func (m *measurement) perRound() []float64 {
	var xs []float64
	for _, r := range m.rounds {
		xs = append(xs, r.opsPerS())
	}
	return xs
}

// machineFactor is how much slower than the reference machine the
// machine was around the timed rounds: the median time of the machine
// kernel over kernelRefMs. Wall-clock values are divided by it.
func (m *measurement) machineFactor() float64 { return median(m.kernelMs) / kernelRefMs }

// measure sets up opt.setupReps times over — the median is steadier
// than one go, and the last instance is the one measured — and runs the
// timed rounds.
func measure(opt *options, rec *recorder) (*measurement, error) {
	w := opt.workload
	m := &measurement{}
	kernel, err := newMachineKernel()
	if err != nil {
		return nil, err
	}
	defer kernel.close()
	for i := 0; i < opt.setupReps; i++ {
		if m.h != nil {
			if err := m.h.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		before := kernel.run()
		t0 := time.Now()
		if m.in, m.h, m.unitBytes, err = setUp(opt, rec); err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		m.setupRawS = append(m.setupRawS, raw)
		m.setupS = append(m.setupS, raw/((before+kernel.run())/2/kernelRefMs))
	}
	if opt.mutate != nil {
		opt.mutate(m.in)
	}

	cycle := w.cycle(m.in)
	perClient := int(math.Round(float64(w.opsPerRound)*opt.seconds/fullScaleSeconds)) / numClients / cycle * cycle
	if perClient < cycle {
		perClient = cycle
	}
	m.ops = float64(opt.rounds * numClients * perClient)
	before, err := m.h.stats()
	if err != nil {
		return m, err
	}
	m.before = readUsage()
	m.kernelMs = append(m.kernelMs, kernel.run())
	for r := 0; r < opt.rounds; r++ {
		ops := make([][]op, numClients)
		for c := range ops {
			ops[c] = w.ops(m.in, r, c, perClient)
		}
		res, err := m.h.round(rec, ops)
		if err != nil {
			return m, err
		}
		m.rounds = append(m.rounds, res)
		m.kernelMs = append(m.kernelMs, kernel.run())
	}
	m.usage = readUsage()
	after, err := m.h.stats()
	m.delta = readCounters(after).minus(readCounters(before))
	return m, err
}

// traced adds the traced part of a run: the layer pass (unless an
// earlier run on the seed made it), the traced pass over the workload's
// operations, and the per-layer metrics both give.
func traced(opt *options, m *measurement, rec *recorder, rep *report) (map[string]float64, error) {
	w := opt.workload
	tr := newTracer()
	rep.library = opt.library
	if rep.library == nil {
		var err error
		if rep.library, err = layerPass(tr, m.in, opt.tracePasses); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	}
	layer := map[string]float64{}
	for k, v := range rep.library {
		layer[k] = v
	}
	if err := tracedPass(tr, m.h, w, m.in, opt.tracePasses, rec, layer); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	serverMetrics(layer, m.delta, m.rounds, m.ops)
	processMetrics(layer, m.usage, m.before, m.ops)
	clientMetrics(layer, w, m.rounds, m.perRound())
	rep.Spans = tr.table()
	if opt.outDir == "" {
		return layer, nil
	}
	return layer, tr.write(filepath.Join(opt.outDir, w.name+"-spans.json"))
}

// run measures one workload.
func run(opt options) (*report, error) {
	w := opt.workload
	rec := &recorder{}
	rep := &report{Workload: w.name, Why: w.why, Env: readEnvironment(opt)}
	if opt.outDir != "" {
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	m, err := measure(&opt, rec)
	if m != nil && m.h != nil {
		defer m.h.stop()
	}
	if err != nil {
		return nil, err
	}
	rep.SetupS, rep.SetupRawS = m.setupS, m.setupRawS
	rep.MachineFactor = m.machineFactor()
	rep.Skipped = m.in.skipped
	rep.Env.Sources = m.in.digest()
	rep.Env.OpsPerRound = int(m.ops) / opt.rounds
	rep.stepsPerOp = m.delta["guest_steps"] / m.ops
	for _, f := range append(checkCommon(m.delta, m.ops), w.check(m.delta, m.ops)...) {
		rep.Failures = append(rep.Failures, "self-check: "+f)
	}
	for i, r := range m.rounds {
		rep.Rounds = append(rep.Rounds, roundSummary{Ops: len(r.samples), Good: r.good, WallS: r.wallS,
			OpsPerS: r.opsPerS(), P50Ms: median(r.latencies(nil)), KernelMs: [2]float64{m.kernelMs[i], m.kernelMs[i+1]}})
	}
	// A workload's value is its median round, put on the footing of the
	// reference machine. Every round is the same sequence of operations.
	rep.EndToEnd = collect(endToEnd, map[string]float64{
		"ops_per_s":  median(m.perRound()) * m.machineFactor(),
		"p50_ms":     median(roundP50s(m.rounds)) / m.machineFactor(),
		"unit_bytes": float64(m.unitBytes),
		"setup_s":    median(m.setupS),
	})

	var layer map[string]float64
	if opt.trace {
		if layer, err = traced(&opt, m, rec, rep); err != nil {
			return nil, err
		}
	}

	rep.Noisy = m.machineFactor() > 1.15 || roundSpread(m.perRound()) > 0.25
	if opt.trace {
		layer["process.calib_ms"] = median(m.kernelMs)
		rep.PerLayer = collect(perLayer, layer)
	}

	rep.Attempted = rec.attempted.Load()
	rep.Failed = rec.failed.Load()
	rep.Failures = append(rec.first, rep.Failures...)
	rep.Correct = len(rep.Failures) == 0
	if opt.outDir == "" {
		return rep, nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(opt.outDir, w.name+".json"), data, 0o644)
}
