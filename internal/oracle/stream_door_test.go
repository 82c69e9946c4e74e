package oracle_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/interp"
	"safetsa/internal/oracle"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// streamDoorAgrees holds the two run doors of one server to each other on
// one unit: POST /run-stream of the bytes, then POST /run of the hash it
// published, must give the same RunResult — output, error, kill, steps
// and allocations. The body is delivered in two reads split just past
// function j, for every j, so the session meets every prefix of the
// function list: what it calls beyond the split is admitted and lowered
// while the guest is already running on what came before. At every split
// the unit is streamed twice: first to a node that has never seen it,
// whose cursor admits the tail, then again to the server that published
// it, whose store vouches for the tail; both answers and hashes are the
// /run's. Both doors' cursors decode into arenas lent from one stock and
// given back once no session reads the unit; here that memory is poisoned
// instead of reused (core.PoisonRecycled), so a lowered form that kept a
// pointer into a body would read junk and answer differently; and every
// session either door runs is released into poisoned chunks
// (core.PoisonRecycled too), which the next split's session is carved from.
//
// A unit admission refuses is held to the other half of the contract: a
// verify-kind error and nothing published.
func streamDoorAgrees(t *testing.T, data []byte, b oracle.Budgets) {
	t.Helper()
	core.PoisonRecycled(true) // on for the package already (TestMain)
	srv, err := codeserver.New(codeserver.Config{MaxSteps: b.MaxSteps, MaxAllocs: b.MaxAlloc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, opts := context.Background(), codeserver.RunOptions{}
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	if err == nil {
		err = su.Wait()
	}
	if err != nil {
		_, err := srv.RunUnitStream(ctx, bytes.NewReader(data), opts)
		if driver.KindOf(err) != driver.KindVerify {
			t.Fatalf("an inadmissible unit answered %v, want a verify error", err)
		}
		if st := srv.Stats(); st.UnitsCached != 0 || st.StreamRejects != 1 {
			t.Fatalf("after one refusal: %d units cached, %d stream rejects", st.UnitsCached, st.StreamRejects)
		}
		return
	}

	// The split points: a fresh cursor asked for one function at a time
	// says where each ends.
	su, _ = wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	splits := []int64{int64(len(data))}
	for j := 0; j < su.NumFuncs(); j++ {
		if err := su.WaitFunc(j); err != nil {
			t.Fatal(err)
		}
		splits = append(splits, su.Offset())
	}

	k := codeserver.KeyForWire(data)
	var want codeserver.RunResult
	// The functions the first streamed run lowered, those the /run pulled
	// and lowered, and how many bodies a stream session's cursor had
	// admitted when its guest returned.
	var streamed, pulled, ran uint64
	var ready int
	for i, at := range splits {
		body := func() io.Reader { return io.MultiReader(bytes.NewReader(data[:at]), bytes.NewReader(data[at:])) }
		if i > 0 {
			fresh, err := codeserver.New(codeserver.Config{MaxSteps: b.MaxSteps, MaxAllocs: b.MaxAlloc})
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.RunUnitStream(ctx, body(), opts)
			if err != nil || got.RunResult != want || got.Hash != k.String() || fresh.Stats().ResidentStreams != 0 {
				t.Fatalf("first stream, split at %d of %d bytes: %v, hash %s\n/run-stream %+v\n/run        %+v",
					at, len(data), err, got.Hash, got.RunResult, want)
			}
			if got := fresh.Stats().LoweredFunctions; got != streamed {
				t.Fatalf("first stream, split at %d of %d bytes: lowered %d functions, the unsplit stream %d", at, len(data), got, streamed)
			}
		}
		got, err := srv.RunUnitStream(ctx, body(), opts)
		if err != nil {
			t.Fatalf("split at %d: %v", at, err)
		}
		if got.Hash != k.String() {
			t.Fatalf("split at %d: answered under %q, not the wire hash", at, got.Hash)
		}
		if i == 0 {
			before := srv.Stats()
			streamed = before.LoweredFunctions
			if want, err = srv.RunUnitOpts(ctx, k, opts); err != nil {
				t.Fatal(err)
			}
			after := srv.Stats()
			pulled, ran = after.PulledFunctions-before.PulledFunctions, after.LoweredFunctions-streamed
			ready = streamedReady(data, b)
		}
		if got.RunResult != want {
			t.Fatalf("split at %d of %d bytes:\n/run-stream %+v\n/run        %+v", at, len(data), got.RunResult, want)
		}
	}

	// What the stream door ran, it ran without the loader cache or the
	// pool; the one load is the /run above. Both doors' cursors admit the
	// bodies up to the last function the guest calls, no further, and both
	// doors lower the functions their guest calls, the first time it calls
	// them — however the body was split, and whether the store vouched for
	// the tail or not. Both book it alike: one prepare and one
	// compile_backend sample per session that lowered anything. Every stream
	// after the first was vouched for by the store.
	st := srv.Stats()
	streams := uint64(len(splits))
	lowering := uint64(0)
	if streamed > 0 {
		lowering += streams
	}
	if ran > 0 {
		lowering++
	}
	if st.Loads != 1 || st.LoaderHits != 0 || st.PoolHits != 0 || st.StreamRejects != 0 || st.ResidentStreams != streams-1 ||
		st.PrepareLatency.Count != lowering || st.CompileBackendLatency.Count != lowering {
		t.Errorf("%d streamed runs and one /run left loads=%d loader_hits=%d pool_hits=%d stream_rejects=%d resident_streams=%d prepare=%d compile_backend=%d",
			len(splits), st.Loads, st.LoaderHits, st.PoolHits, st.StreamRejects, st.ResidentStreams, st.PrepareLatency.Count, st.CompileBackendLatency.Count)
	}
	if streamed != ran || uint64(ready) != pulled || st.LoweredFunctions != streams*streamed+ran {
		t.Errorf("the first streamed run lowered %d functions and its cursor admitted %d, the /run lowered %d and pulled %d; %d streamed runs and the /run lowered %d",
			streamed, ready, ran, pulled, streams, st.LoweredFunctions)
	}
}

// streamedReady runs data in the session the stream door runs it in —
// a cursor lent an arena, under the server's budgets, lowering on first
// call — and reports how many bodies the cursor had admitted when the
// guest returned, which the door does not say.
func streamedReady(data []byte, b oracle.Budgets) int {
	su, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(data), wire.DecodeOptions{}, new(wire.Arena))
	if err != nil {
		return -1
	}
	l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, rt.NewEnv(io.Discard, rt.Budget{MaxSteps: b.MaxSteps, MaxAlloc: b.MaxAlloc}, nil))
	if err == nil {
		_ = l.RunMain()
	}
	return su.Ready()
}

// TestStreamDoorMatchesRunDoorSeeds: every input the two engine-facing
// fuzz targets replay — the step, alloc and depth kills, the exception
// edges, the static-init deaths among them — behaves the same through both
// doors.
func TestStreamDoorMatchesRunDoorSeeds(t *testing.T) {
	var verdicts fuzzseed.Verdicts
	for _, target := range []string{"FuzzCompiledDifferential", "FuzzPooledDifferential"} {
		for _, in := range replayedInputs(t, target) {
			t.Run(target+"/"+in.Name, func(t *testing.T) {
				verdicts.Run(t, in.Data, func(t *testing.T, data []byte) { streamDoorAgrees(t, data, fuzzBudgets) })
			})
		}
	}
}

// TestStreamDoorMatchesRunDoorCorpus: the same over the paper corpus,
// optimized and not, as the served wire version encodes it.
func TestStreamDoorMatchesRunDoorCorpus(t *testing.T) {
	budgets := oracle.Budgets{MaxSteps: 1 << 22, MaxAlloc: 1 << 24}
	for _, u := range corpus.Units() {
		t.Run(u.Name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			streamDoorAgrees(t, wire.EncodeModuleV2(mod, nil), budgets)
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			streamDoorAgrees(t, wire.EncodeModuleV2(mod, nil), budgets)
		})
	}
}
