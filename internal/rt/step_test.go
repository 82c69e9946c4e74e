package rt

import (
	"fmt"
	"testing"
)

// refStep is the step rule as Step spelled it before it became one
// compare: three tests on every step. It is the reference
// TestStepMatchesThreeTestRule holds Step to.
func refStep(e *Env) {
	e.Steps++
	if e.MaxSteps > 0 && e.Steps > e.MaxSteps {
		panic(ErrStepLimit)
	}
	if e.Interrupt != nil && e.Steps&0x0FFF == 0 {
		select {
		case <-e.Interrupt:
			panic(ErrInterrupted)
		default:
		}
	}
}

// stepRun steps e n times with step, first adding charge[i] to the count
// directly before step i (as a snapshot clone pre-charges its
// initializers' drain), and reports the count it stopped at and what it
// panicked with, nil for none.
func stepRun(e *Env, step func(*Env), n int, charge map[int]int64) (steps int64, killed any) {
	defer func() {
		killed = recover()
		steps = e.Steps
	}()
	for i := 0; i < n; i++ {
		e.Steps += charge[i]
		step(e)
	}
	return
}

// TestStepMatchesThreeTestRule: the one-compare Step kills at the same
// step, with the same value, as the three-test rule, for every budget
// around a poll point, with no interrupt, an open one and a closed one,
// and with direct charges that land on, just short of and across a poll
// point — before the first step and after stepLimit was first derived.
func TestStepMatchesThreeTestRule(t *testing.T) {
	open, closed := make(chan struct{}), make(chan struct{})
	close(closed)
	interrupts := []struct {
		name string
		ch   <-chan struct{}
	}{{"nil", nil}, {"open", open}, {"closed", closed}}
	charges := []map[int]int64{
		nil,
		{0: 4095},
		{0: 4096},
		{0: 5000},
		{0: 999_990},
		{100: 3990},
		{100: 3996},
		{100: 8000},
		{5000: 4096, 6000: 1},
		{3: 999_999},
	}
	const n = 3*4096 + 17
	for _, maxSteps := range []int64{0, 1, 4095, 4096, 4097, 1_000_000} {
		for _, in := range interrupts {
			for ci, charge := range charges {
				name := fmt.Sprintf("max=%d/interrupt=%s/charge=%d", maxSteps, in.name, ci)
				want, wantKill := stepRun(&Env{MaxSteps: maxSteps, Interrupt: in.ch}, refStep, n, charge)
				got, gotKill := stepRun(&Env{MaxSteps: maxSteps, Interrupt: in.ch}, (*Env).Step, n, charge)
				if got != want || gotKill != wantKill {
					t.Errorf("%s: stopped at %d with %v, the three-test rule at %d with %v", name, got, gotKill, want, wantKill)
				}
			}
		}
	}
	// The table is only as good as the kills in it.
	if steps, kill := stepRun(&Env{Interrupt: closed}, (*Env).Step, n, nil); kill != ErrInterrupted || steps != 4096 {
		t.Errorf("a closed interrupt stopped at %d with %v, want 4096 and ErrInterrupted", steps, kill)
	}
	if steps, kill := stepRun(NewEnv(nil, Budget{MaxSteps: 4097}, open), (*Env).Step, n, nil); kill != ErrStepLimit || steps != 4098 {
		t.Errorf("a budget of 4097 stopped at %d with %v, want 4098 and ErrStepLimit", steps, kill)
	}
}
