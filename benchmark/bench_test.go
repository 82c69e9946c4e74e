package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smoke is a run at about a hundredth of full scale: enough operations
// to pass every self-check, no wall-clock value looked at.
func smoke(w *workload, seed int64) options {
	return options{workload: w, seed: seed, seconds: fullScaleSeconds / 100, rounds: 1, setupReps: 1, tracePasses: 1}
}

// exact are the per-layer metrics that must repeat bit for bit for a
// seed: counts the producer and the guests determine.
func exact(name string) bool {
	for _, s := range []string{"_bytes", "bytecode.bytes", "instrs_", "opt.guest_steps.", "_removed",
		"opt.devirtualized", "opt.inlined", "opt.checks_elided", "opt.exc_edges_pruned", "rt.guest_"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func checkMetrics(t *testing.T, defs []metricDef, got map[string]value, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: not reported", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v, want a finite number", d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s = %v, an end-to-end metric must never be 0", d.Name, v.Value)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own metric
// and workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []metric, defs []metricDef) {
		var want []metric
		for _, d := range defs {
			want = append(want, metric(d))
		}
		if !reflect.DeepEqual(listed, want) {
			t.Errorf("%s of BENCHMARK.json differ from the program's:\n%v\n%v", what, listed, want)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if listed := spec.Workloads[i]; listed.Name != w.name || listed.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, listed.Name, listed.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: the why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestSmoke runs every workload, traced, at a hundredth of full scale.
func TestSmoke(t *testing.T) {
	t.Parallel()
	// The library layers do not depend on the workload: they are
	// replayed once here and handed to every workload but one.
	in, h, _, err := setUp(&options{workload: findWorkload("run_hot_compute"), seed: 1}, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	library, err := layerPass(newTracer(), in, 1)
	h.stop()
	if err != nil {
		t.Fatal(err)
	}
	if library["opt.guest_steps.o2"] >= library["opt.guest_steps.o0"] {
		t.Errorf("optimized guests take %v steps, unoptimized %v", library["opt.guest_steps.o2"], library["opt.guest_steps.o0"])
	}

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			opt := smoke(w, 1)
			opt.trace, opt.library, opt.outDir = true, library, t.TempDir()
			if w.name == "consume_cold" {
				// This one replays the layers itself, on inputs of its own
				// for the same seed: the exact counts must agree.
				opt.library = nil
			}
			rep, err := run(opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range library {
				if exact(name) && rep.library[name] != v {
					t.Errorf("%s = %v, then %v for the same seed", name, v, rep.library[name])
				}
			}
			if !rep.Correct || exitCode(rep) != 0 {
				t.Errorf("run failed: %v", rep.Failures)
			}
			checkMetrics(t, endToEnd, rep.EndToEnd, true)
			checkMetrics(t, perLayer, rep.PerLayer, false)
			for _, f := range []string{w.name + ".json", w.name + "-spans.json"} {
				if _, err := os.Stat(opt.outDir + "/" + f); err != nil {
					t.Error(err)
				}
			}
			if w.name != "serve_hot" {
				return
			}
			// The same seed again: the random draws, so the guest work
			// per operation the server counted, and the size of the
			// fixed units repeat exactly.
			twin, err := run(smoke(w, 1))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := rep.EndToEnd["unit_bytes"], twin.EndToEnd["unit_bytes"]; a != b {
				t.Errorf("unit_bytes = %v, then %v", a, b)
			}
			if a, b := rep.stepsPerOp, twin.stepsPerOp; a != b || a == 0 {
				t.Errorf("guest steps per op = %v, then %v", a, b)
			}
		})
	}
}

// TestSeedChangesInputs: another seed gives other generated programs,
// which still pass the oracle and the self-checks.
func TestSeedChangesInputs(t *testing.T) {
	t.Parallel()
	one, err := buildInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(smoke(findWorkload("consume_cold"), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("consume_cold on seed 2: %v", rep.Failures)
	}
	if rep.Env.Sources == one.digest() {
		t.Errorf("seeds 1 and 2 generate the same sources")
	}
}

// TestOracleCatchesWrongOutput corrupts one expected output and wants
// failed operations and a non-zero exit.
func TestOracleCatchesWrongOutput(t *testing.T) {
	t.Parallel()
	opt := smoke(findWorkload("serve_hot"), 1)
	opt.mutate = func(in *inputs) { in.uSmall[0].want += "x" }
	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Correct || exitCode(rep) == 0 {
		t.Errorf("failed=%d correct=%v exit=%d, want the corruption noticed", rep.Failed, rep.Correct, exitCode(rep))
	}
	if rep.Failed == rep.Attempted {
		t.Errorf("all %d operations failed, want only those of the corrupted unit", rep.Attempted)
	}
}

// TestSelfChecks feeds each workload's self-check the counters of the
// wrong regime.
func TestSelfChecks(t *testing.T) {
	for _, c := range []struct {
		workload string
		delta    counters
	}{
		{"produce_cold", counters{"compiles": 9, "cached_compiles": 1, "compile_requests": 10}},
		{"consume_cold", counters{"runs": 10, "loads": 4, "loader_hits": 6}},
		{"consume_stream", counters{"runs": 10, "stream_rejects": 1}},
		{"run_hot_compute", counters{"runs": 10, "pool_hits": 9, "loads": 1}},
		{"serve_hot", counters{"runs": 8, "compile_requests": 2, "pool_hits": 7}},
	} {
		if f := findWorkload(c.workload).check(c.delta, 10); len(f) == 0 {
			t.Errorf("%s: self-check accepts %+v", c.workload, c.delta)
		}
		if f := checkCommon(c.delta, 10); len(f) != 0 {
			t.Errorf("%s: common self-check refuses %+v: %v", c.workload, c.delta, f)
		}
	}
	if f := checkCommon(counters{"runs": 10, "kills": 1}, 10); len(f) == 0 {
		t.Error("common self-check accepts a killed guest")
	}
	if f := checkCommon(counters{"runs": 9, "tenant_rejects": 1}, 10); len(f) != 2 {
		t.Errorf("common self-check on a refused run: %v", f)
	}
}
