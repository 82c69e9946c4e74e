package safetsa

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
// messages, output — not its heap. TotalAlloc is read around one session,
// the least of three readings, each after a released warm-up session.
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
		session := func() {
			l, err := interp.LoadTrustedCompiled(mod, comp, rt.NewEnv(io.Discard, rt.Budget{}, nil))
			if err == nil {
				err = l.RunMain()
			}
			if err != nil {
				t.Fatal(err)
			}
			l.Release()
		}
		least := ^uint64(0)
		for range 3 {
			session()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			session()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d B in the second of two released sessions", name, least)
		if least > ceiling {
			t.Errorf("%s: the second of two released sessions allocated %d bytes, ceiling %d", name, least, ceiling)
		}
	}
}
