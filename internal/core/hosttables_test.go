package core_test

import (
	"reflect"
	"sync"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
)

// TestHostTablesAreShared: the host classes' dispatch tables are derived
// once per process, and every derivation copies from them and never
// writes them. Eight goroutines derive every corpus unit's tables at once,
// each over modules of its own, so under -race a write to the shared
// tables races the others' reads; afterwards the tables are still what a
// fresh derivation gives.
func TestHostTablesAreShared(t *testing.T) {
	const workers = 8
	units := corpus.Units()
	mods := make([][]*core.Module, workers)
	for w := range mods {
		for _, u := range units {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			mods[w] = append(mods[w], mod)
		}
	}
	start := make(chan struct{})
	errs := make(chan error, workers*len(units))
	var wg sync.WaitGroup
	for w := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, mod := range mods[w] {
				if _, err := mod.DeriveTables(nil); err != nil {
					errs <- err
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tables, slot := core.HostTables()
	fresh, freshSlot := core.DeriveHostTables()
	if !reflect.DeepEqual(tables, fresh) || !reflect.DeepEqual(slot, freshSlot) {
		t.Errorf("the shared host tables %v, slots %v; a fresh derivation gives %v, %v", tables, slot, fresh, freshSlot)
	}
}
