package codeserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func lruKey(i int) Key { return KeyFor(map[string]string{"f": fmt.Sprint(i)}, Options{}) }

// add caches v for k through fill, the cache's one way in, unless k is
// already cached (the resident value wins) or another caller's flight for
// k supplies the value, and reports whether v went in.
func (c *lru[V]) add(k Key, v V) bool {
	_, how, _ := c.fill(context.Background(), k, func(context.Context) (V, error) { return v, nil })
	return how == led
}

// eventually polls cond; the caches publish "a caller joined" only
// through a counter, so that is the event the tests wait on.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 4000 {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLRU pins the one cache type under the store and the loader cache:
// bounded recency, insert-if-absent, and every outcome of the singleflight
// in fill.
func TestLRU(t *testing.T) {
	t.Run("recency order and eviction count", func(t *testing.T) {
		var evicted atomic.Int64
		c := newLRU[int](2, &evicted, nil)
		c.add(lruKey(0), 0)
		c.add(lruKey(1), 1)
		if _, ok := c.get(lruKey(0)); !ok { // 0 is now the most recent
			t.Fatal("entry 0 missing below capacity")
		}
		c.add(lruKey(2), 2) // pushes out 1, the least recent
		if _, ok := c.get(lruKey(1)); ok {
			t.Error("least recently used entry survived eviction")
		}
		for _, i := range []int{0, 2} {
			if v, ok := c.get(lruKey(i)); !ok || v != i {
				t.Errorf("entry %d = (%d, %v), want resident", i, v, ok)
			}
		}
		if c.len() != 2 || evicted.Load() != 1 {
			t.Errorf("len %d evictions %d, want 2 and 1", c.len(), evicted.Load())
		}
		// A fill's value is bounded the same way.
		if _, how, err := c.fill(context.Background(), lruKey(3), func(context.Context) (int, error) { return 3, nil }); how != led || err != nil {
			t.Fatalf("fill on a miss: how %v err %v", how, err)
		}
		if c.len() != 2 || evicted.Load() != 2 {
			t.Errorf("after fill: len %d evictions %d, want 2 and 2", c.len(), evicted.Load())
		}
	})

	t.Run("racing adds insert once", func(t *testing.T) {
		var evicted atomic.Int64
		c := newLRU[int](4, &evicted, nil)
		const n = 16
		var wg sync.WaitGroup
		won := make([]bool, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				won[i] = c.add(lruKey(0), i)
			}(i)
		}
		wg.Wait()
		winner := -1
		for i, w := range won {
			if w && winner >= 0 {
				t.Fatalf("adds %d and %d both went in", winner, i)
			}
			if w {
				winner = i
			}
		}
		if v, ok := c.get(lruKey(0)); !ok || v != winner {
			t.Errorf("resident value %d (%v), want the one winning add's %d", v, ok, winner)
		}
		if c.len() != 1 || evicted.Load() != 0 {
			t.Errorf("len %d evictions %d, want 1 and 0", c.len(), evicted.Load())
		}
	})

	// One leader holds a flight open, three callers join it, and the row
	// says how the flight ends. A waiter's own fn returns 2, so a waiter
	// that started over is told apart from one that adopted the flight.
	stageDeadline := fmt.Errorf("stage frontend: %w", context.DeadlineExceeded)
	verdict := errors.New("rejected by verifier")
	for _, row := range []struct {
		name         string
		leaderErr    error // what the leader's fn returns (nil: the value 1)
		abandon      bool  // the leader's context ends before its fn returns
		waiterCancel bool  // the waiters' context ends while they wait
		wantRuns     int32 // fn runs over all four callers
		wantValue    int   // what healthy waiters get (0: wantErr)
		wantErr      error
	}{
		{name: "fn runs once for all callers", wantRuns: 1, wantValue: 1},
		{name: "waiter returns its own ctx.Err when its context ends first",
			waiterCancel: true, wantRuns: 1, wantErr: context.Canceled},
		{name: "restart after ErrUnitNotFound",
			leaderErr: ErrUnitNotFound, wantRuns: 2, wantValue: 2},
		{name: "restart after an abandoned leader",
			leaderErr: context.Canceled, abandon: true, wantRuns: 2, wantValue: 2},
		{name: "an abandoned leader that still produced a value is adopted",
			abandon: true, wantRuns: 1, wantValue: 1},
		{name: "no restart after a stage deadline",
			leaderErr: stageDeadline, wantRuns: 1, wantErr: context.DeadlineExceeded},
		{name: "no restart after any other error",
			leaderErr: verdict, wantRuns: 1, wantErr: verdict},
	} {
		t.Run(row.name, func(t *testing.T) {
			const waiters = 3
			var evicted, joins atomic.Int64
			var runs atomic.Int32
			c := newLRU[int](4, &evicted, &joins)
			k := lruKey(0)
			type outcome struct {
				v   int
				how fillHow
				err error
			}

			leaderCtx, abandon := context.WithCancel(context.Background())
			defer abandon()
			started, release := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan outcome, 1)
			go func() {
				v, how, err := c.fill(leaderCtx, k, func(context.Context) (int, error) {
					runs.Add(1)
					close(started)
					<-release
					if row.leaderErr != nil {
						return 0, row.leaderErr
					}
					return 1, nil
				})
				leaderDone <- outcome{v, how, err}
			}()
			<-started

			waiterCtx, cancelWaiters := context.WithCancel(context.Background())
			defer cancelWaiters()
			waiterDone := make(chan outcome, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					v, how, err := c.fill(waiterCtx, k, func(context.Context) (int, error) {
						runs.Add(1)
						return 2, nil
					})
					waiterDone <- outcome{v, how, err}
				}()
			}
			eventually(t, "every waiter joined the flight", func() bool { return joins.Load() == waiters })

			if row.abandon {
				abandon()
			}
			if row.waiterCancel {
				cancelWaiters() // the flight is still open: waiters must not wait for it
			} else {
				close(release)
			}
			for i := 0; i < waiters; i++ {
				got := <-waiterDone
				if row.wantErr != nil {
					if !errors.Is(got.err, row.wantErr) {
						t.Errorf("waiter returned (%d, %v), want error %v", got.v, got.err, row.wantErr)
					}
				} else if got.err != nil || got.v != row.wantValue {
					t.Errorf("waiter returned (%d, %v), want %d", got.v, got.err, row.wantValue)
				}
			}
			if row.waiterCancel {
				close(release)
			}
			lead := <-leaderDone
			if lead.how != led || !errors.Is(lead.err, row.leaderErr) || (row.leaderErr == nil && lead.v != 1) {
				t.Errorf("leader returned (%d, how %v, %v), want its own fn's result", lead.v, lead.how, lead.err)
			}
			if n := runs.Load(); n != row.wantRuns {
				t.Errorf("fn ran %d times over %d callers, want %d", n, waiters+1, row.wantRuns)
			}

			// Errors are never cached; a value is, exactly once.
			wantLen, wantHow := 0, led
			if row.leaderErr == nil || row.wantValue != 0 {
				wantLen, wantHow = 1, resident
			}
			if got := c.len(); got != wantLen {
				t.Errorf("len = %d after the flight, want %d", got, wantLen)
			}
			v, how, err := c.fill(context.Background(), k, func(context.Context) (int, error) { return 9, nil })
			if err != nil || how != wantHow || (how == resident) == (v == 9) {
				t.Errorf("next fill returned (%d, how %v, %v), want how %v", v, how, err, wantHow)
			}
		})
	}
}

// TestLRUDropHook: the drop hook hears of every value that leaves the
// cache — pushed out at capacity by add or by fill, or removed — exactly
// once, and of nothing else: not of a resident value, not of a remove of
// a key the cache does not hold, not of a flight's value that was never
// inserted (the flight failed), and not of an add that lost to the
// resident value.
func TestLRUDropHook(t *testing.T) {
	var evicted atomic.Int64
	c := newLRU[int](2, &evicted, nil)
	dropped := map[int]int{}
	c.drop = func(v int) { dropped[v]++ }
	want := map[int]int{}
	check := func(when string) {
		t.Helper()
		if fmt.Sprint(dropped) != fmt.Sprint(want) {
			t.Fatalf("%s: dropped %v, want %v", when, dropped, want)
		}
	}
	ctx := context.Background()

	c.add(lruKey(0), 0)
	c.add(lruKey(1), 1)
	check("below capacity")
	if c.add(lruKey(0), 10) {
		t.Fatal("an add over a resident key went in")
	}
	check("an add that lost to the resident value") // and made 0 the most recent
	c.add(lruKey(2), 2)                             // pushes out 1
	want[1] = 1
	check("an add at capacity")
	if _, _, err := c.fill(ctx, lruKey(3), func(context.Context) (int, error) { return 0, errors.New("no") }); err == nil {
		t.Fatal("a failed flight succeeded")
	}
	check("a flight that failed")
	if _, how, err := c.fill(ctx, lruKey(3), func(context.Context) (int, error) { return 3, nil }); how != led || err != nil {
		t.Fatalf("fill on a miss: how %v err %v", how, err)
	}
	want[0] = 1 // the least recent, pushed out by the flight's value
	check("a fill at capacity")
	if _, how, _ := c.fill(ctx, lruKey(3), func(context.Context) (int, error) { return 33, nil }); how != resident {
		t.Fatalf("fill of a resident key: how %v", how)
	}
	c.remove(lruKey(9))
	check("a resident fill and a remove of an absent key")
	c.remove(lruKey(2))
	c.remove(lruKey(2))
	want[2] = 1
	check("a remove, twice")
	if v, ok := c.get(lruKey(3)); !ok || v != 3 || evicted.Load() != 2 {
		t.Errorf("resident %d (%v), %d evictions; want 3 resident after 2", v, ok, evicted.Load())
	}
}
