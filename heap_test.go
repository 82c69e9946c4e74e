package safetsa

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

// releasedSessionCeilings is what the second of two released sessions of
// a run_hot_compute guest may allocate: measured on this tree, plus 10 %.
// The parent tree, whose sessions left their heap to the collector,
// allocated 3 076 518 B per ListWalk session and 1 239 769 B per Except
// session (BenchmarkHotRun B/op).
var releasedSessionCeilings = map[string]uint64{
	"ListWalk": 1856 * 11 / 10,
	"Except":   139152 * 11 / 10,
}

// TestReleasedSessionByteCeiling: a session whose predecessor was released
// carves its guest's objects, fields and small arrays from the chunks that
// session left, and its frames are the ones that session retired, so
// what it allocates is what no slab holds — its class table, exception
// messages, output — not its heap (steadyBytes says how it is read).
func TestReleasedSessionByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the session pools at random")
	}
	for name, ceiling := range releasedSessionCeilings {
		src, err := os.ReadFile(filepath.Join("benchmark", "guests", name+".tj"))
		if err != nil {
			t.Fatal(err)
		}
		mod, comp := hotForm(t, map[string]string{name + ".tj": string(src)})
		least := steadyBytes(func() {
			l, err := interp.LoadTrustedCompiled(mod, comp, rt.NewEnv(io.Discard, rt.Budget{}, nil))
			if err == nil {
				err = l.RunMain()
			}
			if err != nil {
				t.Fatal(err)
			}
			l.Release()
		})
		t.Logf("%s: %d B in the second of two released sessions", name, least)
		if least > ceiling {
			t.Errorf("%s: the second of two released sessions allocated %d bytes, ceiling %d", name, least, ceiling)
		}
	}
}

// steadyBytes is the least TotalAlloc of three runs of f, each after a
// warm-up run, read once the pools f recycles its memory through are
// steady. A collection empties every sync.Pool: the Puts after it rebuild
// each pool's per-P array and regrow its chain of queues, and once the
// next collection has dropped what the first set aside, Gets miss and the
// chunks are allocated again. Up to four sessions after one collection pay
// that, 3 to 5 KiB each for ListWalk (against its 1 856 B), and a
// collection that a compile before the readings set going, or that a
// loaded machine stretches across them, can land in every reading. So
// the readings follow two completed collections and then runs of f until
// one allocates what the one before it did (at most sixteen), and a
// reading whose warm-up or run saw a collection complete is taken again
// (at most twelve readings; if none is clean, the least of them).
func steadyBytes(f func()) uint64 {
	run := func() (bytes uint64, gcs uint32) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC
	}
	runtime.GC()
	runtime.GC()
	for prev, i := ^uint64(0), 0; i < 16; i++ {
		b, _ := run()
		if b == prev {
			break
		}
		prev = b
	}
	least, dirty, clean := ^uint64(0), ^uint64(0), 0
	for tries := 0; clean < 3 && tries < 12; tries++ {
		_, warm := run()
		b, gcs := run()
		if warm+gcs > 0 {
			dirty = min(dirty, b)
			continue
		}
		least = min(least, b)
		clean++
	}
	if clean == 0 {
		return dirty
	}
	return least
}

// warmCompileCeilings is what a compile through a warm arena may allocate
// per corpus unit — the producer's twin of releasedSessionCeilings:
// measured on this tree, plus 10 %.
var warmCompileCeilings = map[string]uint64{
	"BatchEnvironment":        416992 * 11 / 10,
	"BatchParser":             103952 * 11 / 10,
	"CompilerMember":          38240 * 11 / 10,
	"ErrorMessage":            37144 * 11 / 10,
	"Main":                    292120 * 11 / 10,
	"SourceClass":             404408 * 11 / 10,
	"SourceMember":            298400 * 11 / 10,
	"AmbiguousClass":          30688 * 11 / 10,
	"AmbiguousMember":         41976 * 11 / 10,
	"ArrayType":               38920 * 11 / 10,
	"BinaryAttribute":         68512 * 11 / 10,
	"BinaryClass":             189504 * 11 / 10,
	"BinaryCode":              81656 * 11 / 10,
	"Parser":                  144080 * 11 / 10,
	"Scanner":                 82784 * 11 / 10,
	"BigDecimal":              66256 * 11 / 10,
	"BigInteger":              119528 * 11 / 10,
	"BitSieve":                50136 * 11 / 10,
	"MutableBigInteger":       116448 * 11 / 10,
	"SignedMutableBigInteger": 119984 * 11 / 10,
	"Linpack":                 108840 * 11 / 10,
}

// TestWarmArenaCompileByteCeiling: a compile whose arena a compile before
// it released carves its tokens, tree, locals, module bodies, pipeline
// tables and encoder state from what that compile left, so what it
// allocates is what no arena holds — the program's symbol tables and
// types, the module's tables and per-function shells, the CST sequences,
// the answer's bytes. It compiles as the producer pool does (front end,
// ssabuild, the O2 pipeline, v2 encoding copied out); steadyBytes says
// how it is read.
func TestWarmArenaCompileByteCeiling(t *testing.T) {
	for _, u := range corpus.Units() {
		a := driver.NewArena()
		least := steadyBytes(func() { warmCompile(t, a, u.Files) })
		t.Logf("%q: %d, // B per compile through a warm arena", u.Name, least)
		if ceiling, ok := warmCompileCeilings[u.Name]; !ok || least > ceiling {
			t.Errorf("%s: a compile through a warm arena allocated %d bytes, ceiling %d", u.Name, least, ceiling)
		}
	}
}

// coldRunCeilings is what one cold run of a corpus unit through
// Server.RunUnitOpts may allocate (coldRunner): measured on this tree,
// plus 10 %. A cold run decodes its bodies and lowers its code into a
// unit's memory another unit gave back, so what is left is its tables,
// its form, its session and the pool's snapshot. The tree before lowered
// code was carved from that memory, when every lowered instruction was a
// closure on the heap, allocated two to three times as much
// (BenchmarkColdRun B/op, recorded in CHANGES.md).
var coldRunCeilings = map[string]uint64{
	"BatchEnvironment":        16432 * 11 / 10,
	"BatchParser":             14776 * 11 / 10,
	"CompilerMember":          11552 * 11 / 10,
	"ErrorMessage":            13200 * 11 / 10,
	"Main":                    16504 * 11 / 10,
	"SourceClass":             16592 * 11 / 10,
	"SourceMember":            16096 * 11 / 10,
	"AmbiguousClass":          11488 * 11 / 10,
	"AmbiguousMember":         13128 * 11 / 10,
	"ArrayType":               13192 * 11 / 10,
	"BinaryAttribute":         13976 * 11 / 10,
	"BinaryClass":             19704 * 11 / 10,
	"BinaryCode":              14352 * 11 / 10,
	"Parser":                  18504 * 11 / 10,
	"Scanner":                 15408 * 11 / 10,
	"BigDecimal":              12280 * 11 / 10,
	"BigInteger":              17384 * 11 / 10,
	"BitSieve":                13304 * 11 / 10,
	"MutableBigInteger":       14528 * 11 / 10,
	"SignedMutableBigInteger": 14536 * 11 / 10,
	"Linpack":                 14720 * 11 / 10,
}

// TestColdRunByteCeiling: a cold run decodes the bodies its guest calls
// into an arena a unit let go of before it, and lowers them into that
// unit's code memory, so what it allocates is its unit's tables and form,
// the session and the pool's snapshot — not its bodies, not its code
// (steadyBytes says how it is read).
func TestColdRunByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the arena stock at random")
	}
	for _, u := range corpus.Units() {
		least := steadyBytes(coldRunner(t, u))
		t.Logf("%q: %d * 11 / 10, // B per cold run", u.Name, least)
		if ceiling, ok := coldRunCeilings[u.Name]; !ok || least > ceiling {
			t.Errorf("%s: a cold run allocated %d bytes, ceiling %d", u.Name, least, ceiling)
		}
	}
}

// exceptAllocCeilings is what one session of the Except guest may
// allocate, in allocations, on the compiled engine (as BenchmarkHotRun
// runs it) and on the bytecode VM (as BenchmarkReference does): measured
// on this tree, plus 10 %. Before a session memoised its bounds messages
// (rt.Env.IndexMessage), every bounds exception built a new host string:
// 2 878 allocations per compiled session and 3 200 per VM run.
var exceptAllocCeilings = struct{ compiled, vm float64 }{24 * 11 / 10, 340 * 11 / 10}

// TestExceptAllocCeiling: a guest that throws and catches the same
// out-of-bounds access in a loop costs the host a message once per
// session, not once per throw, on the served engine and on the reference.
func TestExceptAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the session pools at random")
	}
	src, err := os.ReadFile(filepath.Join("benchmark", "guests", "Except.tj"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"Except.tj": string(src)}
	mod, comp := hotForm(t, files)
	compiled := testing.AllocsPerRun(5, func() {
		l, err := interp.LoadTrustedCompiled(mod, comp, &rt.Env{Out: io.Discard})
		if err == nil {
			err = l.RunMain()
		}
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	})
	prog, err := driver.Frontend(files)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		t.Fatal(err)
	}
	vm := testing.AllocsPerRun(5, func() {
		if _, err := driver.RunBytecode(bc, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Except: %.0f allocations per compiled session, %.0f per VM run", compiled, vm)
	if compiled > exceptAllocCeilings.compiled {
		t.Errorf("compiled engine: %.0f allocations per Except session, ceiling %.0f", compiled, exceptAllocCeilings.compiled)
	}
	if vm > exceptAllocCeilings.vm {
		t.Errorf("bytecode VM: %.0f allocations per Except run, ceiling %.0f", vm, exceptAllocCeilings.vm)
	}
}
