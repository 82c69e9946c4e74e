package core

import (
	"fmt"
	"testing"
	"time"
)

// TestSubclassesOfADeepChain: over a chain of 1 000 classes, each
// extending the one before, asking for every class's subclasses — as the
// call graph does once per dispatched method — costs a pass over the classes
// each, not a walk up the chain per class: milliseconds, where walking
// the chain took seconds.
func TestSubclassesOfADeepChain(t *testing.T) {
	const n = 1000
	tt := NewTypeTable()
	m := &Module{Types: tt}
	super := tt.Throwable // an imported root above the chain
	for i := range n {
		c := tt.AddClass(fmt.Sprintf("C%d", i), super)
		m.Classes = append(m.Classes, &ClassDef{Type: c, Super: super})
		super = c
	}
	start := time.Now()
	for i, cd := range m.Classes {
		got := m.Subclasses(cd.Type)
		if len(got) != n-i || got[0] != cd || got[len(got)-1] != m.Classes[n-1] {
			t.Fatalf("Subclasses(C%d): %d classes, want C%d to C%d", i, len(got), i, n-1)
		}
	}
	if got := m.Subclasses(tt.Throwable); len(got) != n {
		t.Errorf("Subclasses(Throwable): %d classes, want the whole chain", len(got))
	}
	if got := m.Subclasses(tt.String); len(got) != 0 {
		t.Errorf("Subclasses(String): %d classes, want none", len(got))
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("%d Subclasses calls over a %d-deep chain took %v", n+2, n, d)
	}
}
