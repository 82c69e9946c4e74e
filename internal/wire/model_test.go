package wire

import (
	"reflect"
	"testing"
)

// TestModelTemplate: the template newModel copies is the model eachProb
// initialises, probability for probability; the count a dictionary must
// carry is its length; and a new model is a copy of its own, so a coder
// adapting it leaves the template and every later model at probInit.
func TestModelTemplate(t *testing.T) {
	var want model
	n := 0
	want.eachProb(func(p *uint16) { *p = probInit; n++ })
	m := newModel(nil, nil)
	if !reflect.DeepEqual(*m, want) {
		t.Fatal("newModel(nil, nil) is not the eachProb-initialised model")
	}
	if n != modelProbCount || n != 3305 {
		t.Errorf("eachProb visits %d probabilities, modelProbCount is %d; want both 3305", n, modelProbCount)
	}
	m.prods[prodOp].sym[0], m.lit[1], m.dictSym[0] = 1, 2, 3
	if !reflect.DeepEqual(modelTemplate, want) || !reflect.DeepEqual(*newModel(nil, nil), want) {
		t.Error("adapting one model changed the template")
	}
}
