package wire_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/wire"
)

var update = flag.Bool("update", false, "rewrite prior.stsd")

// The prior's training list: priorPrograms programs of the fuzz
// generator, seeds "prior_0" to "prior_39", at O2 (the module pipeline
// the server runs). None is a corpus unit, a benchmark guest or a
// benchmark program (whose seeds are "<seed>_<i>"). The last priorHeldOut
// are tiny, served-unit-sized programs, the others large: the cap is the
// one with which a prior trained on the large programs codes the tiny
// ones in the fewest bytes, the least cap on a tie. Held-out programs of
// the training programs' own shapes are coded in fewer bytes at every cap
// than at the one below it, up to 29, because nothing about them is new
// to the prior; a served unit is not the generator's, and a cap chosen on
// programs unlike the training half gives way to the unit's own
// statistics sooner.
const (
	priorPrograms = 40
	priorHeldOut  = 10
	priorCap      = 9
)

// priorShape is program i's methods and statements per method.
func priorShape(i int) (methods, stmts int) {
	if i < priorPrograms-priorHeldOut {
		return 8 + i%8, 4 + i%5
	}
	return 2 + i%3, 1 + i%2
}

func priorModules(t *testing.T) []*core.Module {
	t.Helper()
	mods := make([]*core.Module, priorPrograms)
	for i := range mods {
		m, s := priorShape(i)
		mods[i] = compileO2(t, fmt.Sprintf("prior_%d", i), corpus.GenerateFuzz(fmt.Sprintf("prior_%d", i), m, s))
	}
	return mods
}

// TestPriorIsTrained: the embedded prior is, byte for byte, the model's
// state after encoding the training list from 1/2 with every count capped
// at priorCap, and priorCap is the held-out choice. With -v it prints the
// held-out bytes of every cap; -update rewrites prior.stsd.
func TestPriorIsTrained(t *testing.T) {
	mods := priorModules(t)
	train, held := mods[:priorPrograms-priorHeldOut], mods[priorPrograms-priorHeldOut:]
	best, least := -1, 0
	for c := 0; c <= 29; c++ { // every count a word can hold
		// A dictionary of probabilities alone codes a unit as a model
		// starting from them would, under a header of the same length
		// whatever the cap.
		d, err := wire.ParseDictionary(wire.TrainPrior(train, c))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range held {
			n += len(wire.EncodeModuleV2(m, d))
		}
		t.Logf("cap %2d: %d B of held-out units", c, n)
		if best < 0 || n < least {
			best, least = c, n
		}
	}
	if best != priorCap {
		t.Errorf("the held-out split chooses cap %d (%d B), priorCap is %d", best, least, priorCap)
	}
	got := wire.TrainPrior(mods, priorCap)
	if *update {
		if err := os.WriteFile("prior.stsd", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if committed, err := os.ReadFile("prior.stsd"); err != nil || !bytes.Equal(got, committed) {
		t.Error("prior.stsd is not the prior its training list gives; run go test -run TestPriorIsTrained -update ./internal/wire")
	}
}
