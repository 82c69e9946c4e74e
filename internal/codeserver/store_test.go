package codeserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWriteDiskTornWriteRace is the regression test for a torn-write
// race in the disk tier: writeDisk used one fixed "<key>.tmp" scratch
// name, so two concurrent writers for the same key could truncate each
// other's half-written file and rename the torn result into the cache,
// after which loadDisk served a corrupt unit as a hit. With unique temp
// files plus rename, every published file is complete, so a reader may
// see a hit or a miss but never wrong bytes.
func TestWriteDiskTornWriteRace(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 8, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}

	var key Key
	key[0] = 7
	wireBytes := make([]byte, 1<<20)
	for i := range wireBytes {
		wireBytes[i] = byte(i*31 + 7)
	}
	u := &Unit{Key: key, Wire: wireBytes, Size: len(wireBytes), Instrs: 1}
	// Publish once up front so the meta sidecar exists and loadDisk
	// serves the raw wire bytes without a validating decode.
	s.writeDisk(u)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.writeDisk(u)
				}
			}
		}()
	}

	var readers sync.WaitGroup
	var mu sync.Mutex
	var torn int
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				got, ok := s.loadDisk(key)
				if ok && !bytes.Equal(got.Wire, wireBytes) {
					mu.Lock()
					torn++
					mu.Unlock()
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	if torn > 0 {
		t.Fatalf("loadDisk served torn wire bytes %d times", torn)
	}

	// Failed or abandoned publishes must not strand scratch files.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// mustNotFill is a fill callback for paths that must be served without
// filling; running it is the failure.
func mustNotFill(context.Context) (*Unit, error) {
	return nil, errors.New("fill ran on a path that must not fill")
}

// TestGetOrFillCoalescedCancel: a caller coalesced onto another caller's
// in-flight fill whose context is cancelled must return promptly with
// ctx.Err(), and its departure must not poison the singleflight slot —
// the fill still completes for its owner and later callers hit the
// published unit.
func TestGetOrFillCoalescedCancel(t *testing.T) {
	m := &Metrics{}
	st, err := NewStore("", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor(map[string]string{"f": "x"}, Options{})

	block := make(chan struct{})
	fillStarted := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (*Unit, error) {
			close(fillStarted)
			<-block
			return &Unit{Wire: []byte{1}, Size: 1, Instrs: 1}, nil
		})
		ownerDone <- err
	}()
	<-fillStarted

	// The waiter coalesces onto the in-flight fill, then its ctx dies.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrFill(ctx, k, mustNotFill)
		waiterDone <- err
	}()
	for i := 0; m.coalesced.Load() == 0; i++ {
		if i > 4000 {
			t.Fatal("waiter never coalesced onto the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	// Slot not poisoned: the owner publishes, later callers hit memory.
	close(block)
	if err := <-ownerDone; err != nil {
		t.Fatalf("fill owner failed after waiter cancellation: %v", err)
	}
	u, cached, err := st.GetOrFill(context.Background(), k, mustNotFill)
	if err != nil || !cached || u == nil {
		t.Fatalf("post-cancel lookup: unit %v cached %v err %v, want memory hit", u, cached, err)
	}
}

// TestGetOrFillOwnerCancelDoesNotPoison: when the *filling* caller's ctx
// is cancelled mid-fill, the fill error reaches the owner and every
// coalesced waiter, but the slot is released — the next caller re-runs
// the fill and succeeds.
func TestGetOrFillOwnerCancelDoesNotPoison(t *testing.T) {
	m := &Metrics{}
	st, err := NewStore("", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor(map[string]string{"f": "y"}, Options{})

	ownerCtx, ownerCancel := context.WithCancel(context.Background())
	fillStarted := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrFill(ownerCtx, k, func(ctx context.Context) (*Unit, error) {
			close(fillStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		ownerDone <- err
	}()
	<-fillStarted

	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrFill(context.Background(), k, mustNotFill)
		waiterDone <- err
	}()
	for i := 0; m.coalesced.Load() == 0; i++ {
		if i > 4000 {
			t.Fatal("waiter never coalesced onto the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
	ownerCancel()
	for i, done := range []chan error{ownerDone, waiterDone} {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("caller %d returned %v, want context.Canceled", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("caller %d did not observe the failed fill", i)
		}
	}

	// The failed fill is not cached: a fresh caller retries and wins.
	u, cached, err := st.GetOrFill(context.Background(), k, func(context.Context) (*Unit, error) {
		return &Unit{Wire: []byte{2}, Size: 1, Instrs: 1}, nil
	})
	if err != nil || cached || u == nil {
		t.Fatalf("retry after failed fill: unit %v cached %v err %v, want fresh fill", u, cached, err)
	}
}

// TestGetOrFillCompileNotAnsweredByEmptyLookup: in a fleet a run's peer
// lookup and a compile of the same key share the singleflight slot. The
// lookup coming up empty must not become the compile's answer — the
// compile was handed the sources and runs its own fill.
func TestGetOrFillCompileNotAnsweredByEmptyLookup(t *testing.T) {
	m := &Metrics{}
	st, err := NewStore("", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor(map[string]string{"f": "z"}, Options{})

	block := make(chan struct{})
	lookupStarted := make(chan struct{})
	lookupDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (*Unit, error) {
			close(lookupStarted)
			<-block
			return nil, ErrUnitNotFound
		})
		lookupDone <- err
	}()
	<-lookupStarted

	type filled struct {
		u   *Unit
		err error
	}
	compileDone := make(chan filled, 1)
	go func() {
		u, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (*Unit, error) {
			return &Unit{Wire: []byte{3}, Size: 1, Instrs: 1}, nil
		})
		compileDone <- filled{u, err}
	}()
	for i := 0; m.coalesced.Load() == 0; i++ {
		if i > 4000 {
			t.Fatal("compile never coalesced onto the in-flight lookup")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	if err := <-lookupDone; !errors.Is(err, ErrUnitNotFound) {
		t.Fatalf("lookup returned %v, want ErrUnitNotFound", err)
	}
	got := <-compileDone
	if got.err != nil || got.u == nil {
		t.Fatalf("compile coalesced onto an empty lookup returned (%v, %v), want its own unit", got.u, got.err)
	}
	if n := m.coalesced.Load(); n != 0 {
		t.Errorf("coalesced = %d after the compile ran its own fill, want 0", n)
	}
}

// TestStorePutPublishesBothTiers covers the replica landing point: Put
// makes the unit visible in memory and persists it so a restarted node
// still holds its replicas.
func TestStorePutPublishesBothTiers(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 8, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 9
	st.Put(&Unit{Key: k, Wire: []byte{1, 2, 3}, Size: 3, Instrs: 1})
	if _, ok := st.Get(k); !ok {
		t.Fatal("Put unit not resident in memory")
	}
	if _, err := os.Stat(fmt.Sprintf("%s/%s.tsa", dir, k)); err != nil {
		t.Fatalf("Put unit not persisted: %v", err)
	}
}
