package rt

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestKillReason pins the metric labels for budget kills, including
// wrapped sentinels (servers wrap run errors before classifying them).
func TestKillReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{ErrStepLimit, "step_limit"},
		{ErrAllocLimit, "alloc_limit"},
		{ErrDepthLimit, "depth_limit"},
		{ErrInterrupted, "interrupt"},
		{fmt.Errorf("run: %w", ErrStepLimit), "step_limit"},
		{fmt.Errorf("run: %w", ErrInterrupted), "interrupt"},
		{fmt.Errorf("run: %w", ErrDepthLimit), "depth_limit"},
		{errors.New("uncaught exception: NullPointerException"), ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := KillReason(c.err); got != c.want {
			t.Errorf("KillReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestKillList holds the list to what its users assume of it: labels are
// distinct and in label order (the /metrics matrix renders rows in index
// order), every sentinel maps back to its own row, only sentinels are
// exec errors, and the one reason with no sentinel is the host's.
func TestKillList(t *testing.T) {
	for k := Kill(0); k < NumKills; k++ {
		if k > 0 && kills[k-1].reason >= kills[k].reason {
			t.Errorf("kill %d %q does not sort after %q", k, kills[k].reason, kills[k-1].reason)
		}
		err := kills[k].err
		if err == nil {
			if k != KillDeadline {
				t.Errorf("%s has no sentinel", k)
			}
			continue
		}
		if got, ok := KillOf(err); !ok || got != k {
			t.Errorf("KillOf(%v) = %v, %v; want %v", err, got, ok, k)
		}
		if !IsExecError(err) || IsExecError(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("IsExecError must hold for the bare %v and only for it", err)
		}
	}
	if IsExecError(nil) || IsExecError(errors.New("other")) {
		t.Error("IsExecError holds for a non-kill")
	}
}

// TestNewEnvCarriesTheBudget: every field of a Budget reaches the Env,
// and Unbudgeted reaches none.
func TestNewEnvCarriesTheBudget(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan struct{})
	e := NewEnv(&out, Budget{MaxSteps: 7, MaxAlloc: 9}, stop)
	if e.Out != &out || e.MaxSteps != 7 || e.MaxAlloc != 9 || e.Interrupt != (<-chan struct{})(stop) {
		t.Errorf("NewEnv dropped something: %+v", e)
	}
	if u := Unbudgeted(nil, "test"); u.MaxSteps != 0 || u.MaxAlloc != 0 || u.Interrupt != nil {
		t.Errorf("Unbudgeted carries a budget: %+v", u)
	}
}

// mustKill runs f and returns the kill it panicked with.
func mustKill(t *testing.T, f func()) (err error) {
	t.Helper()
	defer func() {
		r := recover()
		e, ok := r.(error)
		if !ok || !IsExecError(e) {
			t.Fatalf("ended with %v, want a kill", r)
		}
		err = e
	}()
	f()
	return nil
}

// TestDepthLimit: activations are charged on entry and credited on exit,
// the limit is a kill no literal can switch off, and a frame of any width
// counts for what it holds.
func TestDepthLimit(t *testing.T) {
	e := &Env{} // a literal naming no limit, as benchmark/layers.go builds
	narrow, wide := FrameSlots(1), FrameSlots(5000)
	if narrow <= 1 || wide-narrow != 4999 {
		t.Fatalf("FrameSlots(1) = %d, FrameSlots(5000) = %d", narrow, wide)
	}
	for i := 0; i < 1000; i++ {
		e.Enter(wide)
		e.Leave(wide)
	}
	if e.StackSlots() != 0 {
		t.Fatalf("balanced Enter/Leave left %d slots live", e.StackSlots())
	}
	frames := int64(0)
	err := mustKill(t, func() {
		for {
			e.Enter(narrow)
			frames++
		}
	})
	if err != ErrDepthLimit || frames != MaxStackSlots/narrow {
		t.Errorf("died with %v after %d frames, want ErrDepthLimit after %d", err, frames, MaxStackSlots/narrow)
	}
	e.Unwind()
	if err := mustKill(t, func() {
		for {
			e.Enter(wide)
		}
	}); err != ErrDepthLimit {
		t.Errorf("wide frames died with %v", err)
	}
}

// TestOutputIsCharged: a byte printed is a byte of the allocation budget,
// charged before it is written, so a session's output cannot outgrow
// MaxAlloc and what was printed before the kill survives it.
func TestOutputIsCharged(t *testing.T) {
	var out bytes.Buffer
	e := NewEnv(&out, Budget{MaxAlloc: 10}, nil)
	e.Print("abc")
	e.Println("de")
	if e.Allocs != 6 || out.String() != "abcde\n" {
		t.Fatalf("allocs %d, output %q", e.Allocs, out.String())
	}
	if err := mustKill(t, func() { e.Print("12345") }); err != ErrAllocLimit {
		t.Fatalf("flood died with %v", err)
	}
	if out.String() != "abcde\n" {
		t.Errorf("the refused write reached the output: %q", out.String())
	}
}

// TestClonerIsNotRecursive: the shape of the heap is the guest's to
// choose, so the clone walk may not spend host stack on it. A list this
// long cost a recursive walk some 40 MiB of it; four million nodes hung
// off a static overflowed the Go stack and took the process down.
func TestClonerIsNotRecursive(t *testing.T) {
	const nodes = 200_000
	e := &Env{}
	ci := &ClassInfo{Name: "N", NumSlots: 1}
	var head Value
	for i := 0; i < nodes; i++ {
		o := e.NewObject(ci)
		o.Fields[0] = head
		head = RefValue(o)
	}
	done := make(chan Value)
	var grew uint64
	go func() { // a fresh goroutine: its stack starts small
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dup := NewCloner(&Env{}, nil).Value(head)
		runtime.ReadMemStats(&after)
		grew = after.StackInuse - min(after.StackInuse, before.StackInuse)
		done <- dup
	}()
	dup := <-done
	if grew > 1<<20 {
		t.Errorf("cloning a %d-node list grew the host's stacks by %d bytes", nodes, grew)
	}
	n := 0
	for v := dup; v.R != nil; v = v.R.(*Object).Fields[0] {
		n++
	}
	if n != nodes {
		t.Errorf("clone has %d nodes, want %d", n, nodes)
	}
}
