package codeserver

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// corpusWires is every corpus unit as the repository benchmark serves it:
// O2 with the module tier, wire v2.
func corpusWires(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		out[u.Name] = wire.EncodeModuleV2(mod, nil)
	}
	return out
}

// corpusBudget is what a corpus guest may take on these servers.
var corpusBudget = Config{MaxSteps: 1 << 22, MaxAllocs: 1 << 24}

// restreamByteCeiling is what one re-stream of a resident corpus unit may
// allocate, averaged over the corpus: measured 15.4–15.8 kB on this tree,
// plus 10 %. A tree whose lowered instructions were closures on the heap
// measured 37–38 kB through the same harness, and one whose stream
// door kept every body it admitted in a module of its own, decoded into
// fresh memory each time, 207 kB.
const restreamByteCeiling = 17 << 10

// TestRestreamByteCeiling: a resident unit streamed again costs the host
// what its session keeps — tables, the guest's heap and output — and not
// the memory its bodies were decoded into and its code lowered into, lent
// from the stock and given back after each stream.
// TotalAlloc is read around ten rounds of the whole corpus, the least of
// three such readings.
func TestRestreamByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the door's pool at random")
	}
	s := newTestServer(t, corpusBudget)
	wires := corpusWires(t)
	for _, data := range wires {
		if _, err := s.RunUnitStream(context.Background(), bytes.NewReader(data), RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 10
	before := s.Stats().ResidentStreams
	n := uint64(rounds * len(wires))
	objects, total := leastAllocated(3, func() {
		for range rounds {
			for _, data := range wires {
				if _, err := s.RunUnitStream(context.Background(), bytes.NewReader(data), RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if got := s.Stats().ResidentStreams - before; got != 3*n {
		t.Fatalf("%d of %d re-streams were vouched for by the store", got, 3*n)
	}
	per := total / n
	t.Logf("%d B per resident re-stream, %d allocations, over %d re-streams", per, objects/n, n)
	if per > restreamByteCeiling {
		t.Errorf("a resident re-stream allocated %d bytes, ceiling %d", per, restreamByteCeiling)
	}
}

// TestRestreamPooledArenas: sixteen clients stream the corpus at once, each
// in its own order, so the arenas the door borrows pass from unit to unit
// and from client to client, and the first stream of each unit — whose cursor
// decodes the tail — races the re-streams the store vouches for. Every
// answer is the one /run gives for the unit. Run it under -race.
func TestRestreamPooledArenas(t *testing.T) {
	wires := corpusWires(t)
	names := make([]string, 0, len(wires))
	want := map[string]RunResult{}
	ref := newTestServer(t, corpusBudget)
	for name, data := range wires {
		if _, err := ref.RunUnitStream(context.Background(), bytes.NewReader(data), RunOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := ref.RunUnitOpts(context.Background(), KeyForWire(data), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		names, want[name] = append(names, name), res
	}

	s := newTestServer(t, corpusBudget)
	const clients, rounds = 16, 2
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(names) {
				name := names[(c*7+i)%len(names)]
				res, err := s.RunUnitStream(context.Background(), bytes.NewReader(wires[name]), RunOptions{})
				if err != nil || res.RunResult != want[name] || res.Hash != KeyForWire(wires[name]).String() {
					t.Errorf("client %d, %s: /run-stream %+v, %v\n/run        %+v", c, name, res, err, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if n := uint64(clients * rounds * len(names)); st.Runs != n || st.StreamRejects != 0 || st.ResidentStreams == 0 || st.ResidentStreams == n {
		t.Errorf("runs %d, stream_rejects %d, resident_streams %d of %d streams", st.Runs, st.StreamRejects, st.ResidentStreams, n)
	}
}
