package wire_test

import (
	"strings"
	"testing"

	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// FuzzWireDecode is the executable form of the paper's referential-
// integrity claim (§2/§9): arbitrary bytes pushed through the decoder
// either fail cleanly or produce a module the verifier accepts, in
// canonical wire form, that runs to a guest-visible outcome under step
// and allocation budgets. oracle.CheckWire encodes exactly that
// contract, and oracle.CheckAdmission that the verifying decoder reaches
// the verifier's verdict; any non-nil result is a decoder admission bug.
// Plain `go test` replays its generated seeds (fuzzseed.WireDecode) and
// the inputs a fuzzer found under testdata/fuzz.
func FuzzWireDecode(f *testing.F) {
	fuzzseed.Add(f, fuzzseed.WireDecode(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.CheckWire(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckAdmission(data); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzBudgets bound every guest FuzzWireDecode's oracles run.
var fuzzBudgets = oracle.Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}

// TestWireDecodeCorpusReachesBodies opens every generated seed of
// FuzzWireDecode through OpenVerified: each unit cut inside its last body
// must be refused there, after bodies before it were admitted, or the
// refusals plain `go test` replays exercise table parsing only.
func TestWireDecodeCorpusReachesBodies(t *testing.T) {
	cuts := 0
	for _, s := range fuzzseed.WireDecode(t) {
		ready := 0
		su, err := wire.OpenVerified(s.Data, nil)
		if err == nil {
			err = su.Wait()
			ready = su.Ready()
		}
		t.Logf("%s: %d bodies admitted, then %v", s.Name, ready, err)
		if strings.HasPrefix(s.Name, "seed_body_cut_") {
			cuts++
			if err == nil || ready == 0 {
				t.Errorf("%s: refused with %d bodies admitted (%v), want a refusal after a body", s.Name, ready, err)
			}
		}
	}
	if cuts == 0 {
		t.Error("no seed is cut inside a body")
	}
}
