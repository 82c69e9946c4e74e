package codeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/wire"
)

// plantUnit puts u into both tiers of st without admitting it — what no
// code outside the tests can do. It is for tests that need a unit
// resident that admission would refuse (to prove the loader refuses it
// too), or an entry to corrupt.
func plantUnit(st *Store, u *Unit) {
	st.units.add(u.Key, u)
	st.writeDisk(u)
}

// forged mints an admitted value no admission stands behind — like
// plantUnit, what no code outside the tests can do — for the tests of the
// store's coalescing, whose fills never reach a decoder.
func forged(wire ...byte) admitted { return admitted{mod: &core.Module{}, wire: wire} }

// helloUnit compiles the hello program into a real unit (loadDisk
// re-admits what it reads, so disk-tier tests need bytes that decode).
func helloUnit(t *testing.T) *Unit {
	t.Helper()
	u, _, err := newTestServer(t, Config{}).CompileUnit(context.Background(), helloFiles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestWriteDiskTornWriteRace is the regression test for a torn-write
// race in the disk tier: writeDisk used one fixed "<key>.tmp" scratch
// name, so two concurrent writers for the same key could truncate each
// other's half-written file and rename the torn result into the cache.
// With unique temp files plus rename, every published file is complete,
// so a reader racing the writers always gets a hit with the right bytes
// (a torn file would be rejected by loadDisk's re-admission: a miss).
func TestWriteDiskTornWriteRace(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 8, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}

	u := helloUnit(t)
	key, wireBytes := u.Key, u.Wire
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
				if !ok || !bytes.Equal(got.wire, wireBytes) {
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
		t.Fatalf("loadDisk missed or served torn wire bytes %d times", torn)
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

// TestDiskTierReadmitsUnits is the regression test for the disk tier
// serving bytes it never decoded: loadDisk returned whatever the .tsa
// held, so a torn unit (writeDisk does not fsync) was a hit forever —
// answered as cached by /compile, served by /unit, failing every /run —
// and the key never recompiled. The disk is one more untrusted source: a
// unit that does not pass DecodeVerified is a miss, its file goes, and the
// next fill rewrites it.
func TestDiskTierReadmitsUnits(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	st, err := NewStore(dir, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	u := helloUnit(t)
	plantUnit(st, u)
	wirePath := st.wirePath(u.Key)
	if err := os.Truncate(wirePath, int64(len(u.Wire)/2)); err != nil {
		t.Fatal(err)
	}

	// A restart: fresh memory tier over the same directory.
	st, err = NewStore(dir, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(context.Background(), u.Key); ok {
		t.Fatalf("Get served a truncated unit from disk (%d of %d bytes)", len(got.Wire), len(u.Wire))
	}
	if _, err := os.Stat(wirePath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected unit left %s behind (%v)", wirePath, err)
	}
	fills := 0
	got, cached, err := st.GetOrFill(context.Background(), u.Key, func(context.Context) (admitted, error) {
		fills++
		return admit(u.Wire)
	})
	if err != nil || cached || fills != 1 || m.n[mDiskHits].Load() != 0 {
		t.Fatalf("GetOrFill after a rejected disk unit: cached=%v fills=%d disk_hits=%d err=%v, want one fill",
			cached, fills, m.n[mDiskHits].Load(), err)
	}
	if !bytes.Equal(got.Wire, u.Wire) {
		t.Fatal("fill result not returned")
	}
	data, err := os.ReadFile(wirePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeVerified(data); err != nil {
		t.Fatalf("rewritten unit does not decode: %v", err)
	}

	// And the intact unit is a disk hit on the next restart, its
	// instruction count taken from the decode.
	if st, err = NewStore(dir, 8, m); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(context.Background(), u.Key); !ok || got.Instrs != u.Instrs {
		t.Fatalf("intact unit after restart: ok=%v unit=%+v, want %d instructions", ok, got, u.Instrs)
	}
}

// mustNotFill is a fill callback for paths that must be served without
// filling; running it is the failure.
func mustNotFill(context.Context) (admitted, error) {
	return admitted{}, errors.New("fill ran on a path that must not fill")
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
		_, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (admitted, error) {
			close(fillStarted)
			<-block
			return forged(1), nil
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
	for i := 0; m.n[mCoalesced].Load() == 0; i++ {
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
// is cancelled mid-fill, the owner gets its own cancellation, but a
// coalesced waiter whose context is intact does not inherit it — it runs
// its own fill and gets the unit. Nothing is cached from the failed
// flight: the unit a later caller hits is the waiter's.
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
		_, _, err := st.GetOrFill(ownerCtx, k, func(ctx context.Context) (admitted, error) {
			close(fillStarted)
			<-ctx.Done()
			return admitted{}, ctx.Err()
		})
		ownerDone <- err
	}()
	<-fillStarted

	type filled struct {
		u      *Unit
		cached bool
		err    error
	}
	waiterDone := make(chan filled, 1)
	go func() {
		u, cached, err := st.GetOrFill(context.Background(), k, func(context.Context) (admitted, error) {
			return forged(2), nil
		})
		waiterDone <- filled{u, cached, err}
	}()
	eventually(t, "the waiter coalesced onto the in-flight fill", func() bool { return m.n[mCoalesced].Load() == 1 })
	ownerCancel()
	select {
	case err := <-ownerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("owner returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("owner did not observe its cancellation")
	}
	select {
	case got := <-waiterDone:
		if got.err != nil || got.cached || got.u == nil || got.u.Wire[0] != 2 {
			t.Fatalf("healthy waiter behind an abandoned leader got (%v, cached %v, %v), want the unit from its own fill",
				got.u, got.cached, got.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter did not start over after the abandoned flight")
	}
	if n := m.n[mCoalesced].Load(); n != 0 {
		t.Errorf("coalesced = %d after the waiter ran its own fill, want 0", n)
	}

	// Only the waiter's fill was cached.
	u, cached, err := st.GetOrFill(context.Background(), k, mustNotFill)
	if err != nil || !cached || u == nil || u.Wire[0] != 2 {
		t.Fatalf("lookup after the abandoned flight: unit %v cached %v err %v, want the waiter's unit from memory", u, cached, err)
	}
}

// TestHTTPCompileSurvivesAbandonedLeader is the same rule seen by
// clients: two clients POST /compile the same new source set, the first
// disconnects mid-compile, and the second — connection intact — must get
// its unit, not the first client's 499. The only worker slot is held by
// the test, so the leading compile is in flight exactly as long as the
// test wants.
func TestHTTPCompileSurvivesAbandonedLeader(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.pool.sem <- struct{}{}

	body, err := json.Marshal(CompileRequest{Files: helloFiles()})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}

	firstCtx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	firstDone := make(chan error, 1)
	go func() {
		resp, err := post(firstCtx)
		if err == nil {
			resp.Body.Close()
		}
		firstDone <- err
	}()
	eventually(t, "the first compile is in flight", func() bool { return s.m.n[mCompileRequests].Load() == 1 })

	type answer struct {
		status int
		body   string
		err    error
	}
	secondDone := make(chan answer, 1)
	go func() {
		resp, err := post(context.Background())
		if err != nil {
			secondDone <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		secondDone <- answer{status: resp.StatusCode, body: string(b)}
	}()
	eventually(t, "the second compile joined the first", func() bool { return s.m.n[mCoalesced].Load() == 1 })

	disconnect()
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first client: %v, want its own cancellation", err)
	}
	// The server notices the closed connection and the leader gives up its
	// wait for a worker; the second request starts over (or, before the
	// fix, was answered with the leader's cancellation).
	eventually(t, "the abandoned flight ended", func() bool {
		return s.m.n[mCoalesced].Load() == 0 || len(secondDone) == 1
	})
	<-s.pool.sem

	got := <-secondDone
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("client with an intact connection got status %d body %s err %v, want 200", got.status, got.body, got.err)
	}
	if st := s.Stats(); st.Compiles != 1 || st.UnitsCached != 1 {
		t.Errorf("compiles %d units cached %d, want 1 and 1", st.Compiles, st.UnitsCached)
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
		_, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (admitted, error) {
			close(lookupStarted)
			<-block
			return admitted{}, ErrUnitNotFound
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
		u, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (admitted, error) {
			return forged(3), nil
		})
		compileDone <- filled{u, err}
	}()
	for i := 0; m.n[mCoalesced].Load() == 0; i++ {
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
	if n := m.n[mCoalesced].Load(); n != 0 {
		t.Errorf("coalesced = %d after the compile ran its own fill, want 0", n)
	}
}

// TestStorePutPublishesBothTiers keeps its name from Store.Put, whose
// last caller was the stream publication; that is a fill now, and this is
// what it must still do: make the streamed unit visible in memory and
// persist it, so a restarted node still holds it. Publishing the same
// unit again is a resident hit and must leave the file on disk alone —
// Put rewrote the file (CreateTemp + rename, a new inode) on every
// repeated stream.
func TestStorePutPublishesBothTiers(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{CacheDir: dir})
	data, want := streamUnit(t, true)
	k := KeyForWire(data)
	wirePath := s.store.wirePath(k)

	stream := func() {
		t.Helper()
		res, err := s.RunUnitStream(context.Background(), bytes.NewReader(data), RunOptions{})
		if err != nil || !res.OK || res.Output != want || res.Hash != k.String() {
			t.Fatalf("stream run = %+v, %v; want output %q under hash %s", res, err, want, k)
		}
	}
	stream()
	// The stream door keeps no body, so the unit's instruction count is the
	// one its cursor counted as it admitted them: the whole unit's.
	whole, err := wire.DecodeVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := s.Unit(context.Background(), k)
	if !ok || !bytes.Equal(u.Wire, data) || u.Size != len(data) || u.Instrs != whole.NumInstrs() {
		t.Fatalf("streamed unit not resident as delivered: ok=%v unit=%+v, want %d instructions", ok, u, whole.NumInstrs())
	}
	first, err := os.Stat(wirePath)
	if err != nil {
		t.Fatalf("streamed unit not persisted: %v", err)
	}

	stream()
	second, err := os.Stat(wirePath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, second) {
		t.Error("a repeated stream of a resident unit rewrote its file on disk")
	}
	if again, _ := s.Unit(context.Background(), k); again != u {
		t.Error("a repeated stream replaced the resident unit")
	}
	if st := s.Stats(); st.UnitsCached != 1 || st.CacheHits != 0 || st.DiskHits != 0 {
		t.Errorf("units cached %d, cache_hits %d, disk_hits %d; want 1 unit and no compile-path hits from publications",
			st.UnitsCached, st.CacheHits, st.DiskHits)
	}

	// A restart: the unit is served from the disk tier.
	s2 := newTestServer(t, Config{CacheDir: dir})
	if got, ok := s2.Unit(context.Background(), k); !ok || !bytes.Equal(got.Wire, data) {
		t.Fatalf("restarted node lost the streamed unit: ok=%v", ok)
	}
}

// TestStoreOneUnitPerKeyThroughEveryDoor: after a restart, callers that
// reach one disk-resident key at once — lookups, a compile-path fill, a
// stream publication — all go through the one fill, so the disk is read
// and the unit admitted once, every caller holds the same *Unit, the
// store holds one entry and the file is not rewritten. Store.Get used to
// probe the disk outside the singleflight: each concurrent lookup decoded
// its own copy and returned it, though only the first was kept.
func TestStoreOneUnitPerKeyThroughEveryDoor(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	st, err := NewStore(dir, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	u := helloUnit(t)
	u.Key = KeyForWire(u.Wire) // a key all three doors can honestly ask for
	k := u.Key
	st.writeDisk(u)
	before, err := os.Stat(st.wirePath(k))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = NewStore(dir, 8, m); err != nil { // the restart
		t.Fatal(err)
	}

	const callers = 16
	got := make([]*Unit, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx := context.Background()
			switch i % 3 {
			case 0:
				if v, ok := st.Get(ctx, k); ok {
					got[i] = v
				} else {
					errs[i] = ErrUnitNotFound
				}
			case 1:
				got[i], _, errs[i] = st.GetOrFill(ctx, k, mustNotFill)
			case 2: // what RunUnitStream does with an admitted stream
				got[i], _, _, errs[i] = st.fill(ctx, k, func(context.Context) (admitted, error) {
					return admit(bytes.Clone(u.Wire))
				})
			}
		}()
	}
	close(start)
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d holds its own copy of the unit (%p, caller 0 holds %p)", i, got[i], got[0])
		}
	}
	if !bytes.Equal(got[0].Wire, u.Wire) || got[0].Key != k {
		t.Error("the resident unit is not the one on disk")
	}
	if n := st.Len(); n != 1 {
		t.Errorf("store holds %d entries for one key", n)
	}
	after, err := os.Stat(st.wirePath(k))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("serving a disk-resident unit rewrote its file")
	}
}

// TestFillHandsTheModuleToItsLeader: the module an admission proved goes
// to the one caller that led it — from the miss or from the disk — and to
// nobody else: a resident hit and a joined waiter get nil and, if they
// want to run the unit, admit its bytes themselves. The store keeps bytes.
func TestFillHandsTheModuleToItsLeader(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 8, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	good := helloUnit(t)
	k, ctx := good.Key, context.Background()

	joinedDone := make(chan *core.Module, 1)
	var want *core.Module
	u, mod, how, err := st.fill(ctx, k, func(context.Context) (admitted, error) {
		go func() {
			_, mod, _, _ := st.fill(ctx, k, mustNotFill)
			joinedDone <- mod
		}()
		eventually(t, "the second caller joined the flight", func() bool { return st.m.n[mCoalesced].Load() == 1 })
		a, err := admit(good.Wire)
		want = a.mod
		return a, err
	})
	if err != nil || how != led || mod == nil || mod != want || !bytes.Equal(u.Wire, good.Wire) {
		t.Fatalf("leader of a miss: how %v mod %p (admitted %p) err %v", how, mod, want, err)
	}
	if mod := <-joinedDone; mod != nil {
		t.Error("a joined waiter was handed the leader's module")
	}
	if _, mod, how, err := st.fill(ctx, k, mustNotFill); err != nil || how != resident || mod != nil {
		t.Errorf("resident hit: how %v mod %p err %v, want no module", how, mod, err)
	}

	// A restart: the leader of the disk re-admission gets that admission's module.
	if st, err = NewStore(dir, 8, &Metrics{}); err != nil {
		t.Fatal(err)
	}
	if _, mod, how, err := st.fill(ctx, k, nil); err != nil || how != led || mod == nil || mod.NumInstrs() != good.Instrs {
		t.Errorf("leader of a disk re-admission: how %v mod %p err %v", how, mod, err)
	}
}
