package opt

import (
	"math/rand/v2"
	"slices"
	"testing"

	"safetsa/internal/core"
)

// TestCSETableMatchesMap runs random scoped put/get/undo sequences on a
// table of sixteen slots, a few keys to a run of slots, against a model
// that is a stack of maps. Every get must agree with the model, closing a
// scope must leave the slots exactly as they were when it opened (the
// LIFO undo argument in csetable.go), and a table whose scopes are all
// closed must be empty. Past half load the table grows, and the model
// still decides every answer.
func TestCSETableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 1))
	for trial := range 300 {
		var tab cseTable
		tab.reset(4) // 16 slots; the 9th live key grows the table
		scopes := []map[cseKey]core.ValueID{{}}
		type opened struct {
			mark  int
			slots []cseSlot
		}
		var marks []opened
		live, next := 0, core.ValueID(1)
		lookup := func(k cseKey) (core.ValueID, bool) {
			for _, s := range scopes {
				if v, ok := s[k]; ok {
					return v, true
				}
			}
			return core.NoValue, false
		}
		closeScope := func() {
			top := marks[len(marks)-1]
			marks = marks[:len(marks)-1]
			tab.undo(top.mark)
			live -= len(scopes[len(scopes)-1])
			scopes = scopes[:len(scopes)-1]
			if len(tab.slots) == len(top.slots) && !slices.Equal(tab.slots, top.slots) {
				t.Fatalf("trial %d: closing a scope left the table unlike its opening", trial)
			}
		}
		for range 500 {
			k := cseKey{op: core.Op(rng.IntN(4)), a0: core.ValueID(rng.IntN(5)), mem: memUnknown}
			switch r := rng.IntN(10); {
			case r < 2 && len(marks) < 10:
				marks = append(marks, opened{tab.mark(), slices.Clone(tab.slots)})
				scopes = append(scopes, map[cseKey]core.ValueID{})
			case r < 4 && len(marks) > 0:
				closeScope()
			default:
				want, wantOK := lookup(k)
				got, ok := tab.get(k)
				if ok != wantOK || got != want {
					t.Fatalf("trial %d: get(%+v) = %d, %v; the model says %d, %v", trial, k, got, ok, want, wantOK)
				}
				if !ok && live < 12 {
					tab.put(k, next)
					scopes[len(scopes)-1][k] = next
					next++
					live++
				}
			}
		}
		for len(marks) > 0 {
			closeScope()
		}
		tab.undo(0)
		for i, s := range tab.slots {
			if s != (cseSlot{}) {
				t.Fatalf("trial %d: slot %d still holds %+v after every scope closed", trial, i, s)
			}
		}
	}
}
