package bench

import (
	"encoding/json"
	"fmt"

	"safetsa/internal/obs"
)

// JSONLoad is the machine-readable load-replay block: the traffic shape
// actually driven and the client-observed latency digest per stage.
type JSONLoad struct {
	Targets        int     `json:"targets"`
	Workers        int     `json:"workers"`
	Units          int     `json:"units"`
	Tenants        int     `json:"tenants"`
	RunFraction    float64 `json:"run_fraction"`
	ZipfS          float64 `json:"zipf_s"`
	ElapsedNanos   int64   `json:"elapsed_nanos"`
	Requests       uint64  `json:"requests"`
	Compiles       uint64  `json:"compiles"`
	CachedCompiles uint64  `json:"cached_compiles"`
	Runs           uint64  `json:"runs"`
	Throttled      uint64  `json:"throttled"`
	Errors         uint64  `json:"errors"`
	// GuestSteps/GuestAllocs total the server-reported budget drain over
	// all accepted runs — compare against the server's guest counters to
	// check budget parity from outside.
	GuestSteps  uint64 `json:"guest_steps"`
	GuestAllocs uint64 `json:"guest_allocs"`
	// ErrorSamples carries the first few failure messages so a red CI
	// run is diagnosable from the archived report alone.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Latencies digests the client-observed stage histograms ("compile",
	// "run"): count, total, p50/p90/p99 in nanoseconds.
	Latencies map[string]obs.LatencySummary `json:"latencies"`
	// TenantLatencies digests accepted-run latency per tenant identity —
	// the fairness observable the admission gate protects.
	TenantLatencies map[string]obs.LatencySummary `json:"tenant_latencies,omitempty"`
}

// JSON converts a load replay into its report block.
func (r *LoadResult) JSON() *JSONLoad {
	j := &JSONLoad{
		Targets:        r.Targets,
		Workers:        r.Workers,
		Units:          r.Units,
		Tenants:        r.Tenants,
		RunFraction:    r.RunFraction,
		ZipfS:          r.ZipfS,
		ElapsedNanos:   int64(r.Elapsed),
		Requests:       r.Requests,
		Compiles:       r.Compiles,
		CachedCompiles: r.CachedCompiles,
		Runs:           r.Runs,
		Throttled:      r.Throttled,
		Errors:         r.Errors,
		GuestSteps:     r.GuestSteps,
		GuestAllocs:    r.GuestAllocs,
		ErrorSamples:   r.ErrorSamples,
		Latencies: map[string]obs.LatencySummary{
			"compile": r.CompileHist.Summary(),
			"run":     r.RunHist.Summary(),
		},
	}
	if len(r.TenantRunHists) > 0 {
		j.TenantLatencies = make(map[string]obs.LatencySummary, len(r.TenantRunHists))
		for i, h := range r.TenantRunHists {
			j.TenantLatencies[fmt.Sprintf("tenant-%d", i)] = h.Summary()
		}
	}
	return j
}

// loadSchema stamps safetsaload's report. The string is the last value
// of the retired benchtables -json report, whose "load" block this was;
// it is kept so archived load reports stay comparable.
const loadSchema = "safetsa-bench-v8"

// FormatJSONLoad renders a load replay as a schema-stamped report whose
// payload is the load block.
func FormatJSONLoad(r *LoadResult) ([]byte, error) {
	rep := struct {
		Schema string    `json:"schema"`
		Load   *JSONLoad `json:"load"`
	}{loadSchema, r.JSON()}
	return json.MarshalIndent(rep, "", "  ")
}
