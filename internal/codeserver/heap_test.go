package codeserver

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/rt"
)

// hotAndSmallUnits is what the repository benchmark runs through pooled
// sessions: run_hot_compute's six guests (Linpack and BitSieve from the
// corpus, the four of benchmark/guests) and every other corpus unit.
func hotAndSmallUnits(t *testing.T) map[string]map[string]string {
	t.Helper()
	units := map[string]map[string]string{}
	for _, u := range corpus.Units() {
		units[u.Name] = u.Files
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "guests", "*.tj"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("benchmark guests: %v, %v", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Base(path)
		units[strings.TrimSuffix(file, ".tj")] = map[string]string{file: string(src)}
	}
	return units
}

// staticHeapFiles is a unit whose static initializers leave strings,
// objects and arrays in its statics, which main prints and then replaces:
// every pooled session reads a clone of them, so a clone — or a snapshot —
// that kept a reference into a released session's heap prints junk.
func staticHeapFiles() map[string]string {
	return map[string]string{"StaticHeap.tj": `
class Node {
    String name;
    Node next;
    int[] data;
    Node(String n, Node x) { name = n; next = x; data = new int[3]; }
}
class StaticHeap {
    static String greeting = "hello, " + "world";
    static Node chain = StaticHeap.build();
    static Node build() {
        Node n = null;
        for (int i = 0; i < 40; i++) {
            n = new Node("n" + i, n);
            n.data[i % 3] = i;
        }
        return n;
    }
    static void main() {
        System.out.println(StaticHeap.greeting);
        int sum = 0;
        for (Node c = StaticHeap.chain; c != null; c = c.next) {
            sum = sum + c.data[0] + c.data[1] + c.data[2] + c.name.length();
        }
        System.out.println(StaticHeap.chain.name + " " + sum);
        StaticHeap.greeting = "changed";
        StaticHeap.chain = new Node("mutated", null);
    }
}`}
}

// TestPooledRunsRecycleConcurrently: sixteen clients run the hot guests,
// the small corpus and a unit whose statics hold a heap at once through
// one server's pool, each in its own
// order, so every session is cloned from a snapshot, runs on chunks and
// frames some other session — of another unit, on another client —
// released, poisoned first (core.PoisonRecycled, for heaps and for
// the arenas of units let go of), and is released in turn. Every answer is
// the one a server without a pool gave, one session at a time. Run it
// under -race.
func TestPooledRunsRecycleConcurrently(t *testing.T) {
	poisonRecycled(t)
	units := hotAndSmallUnits(t)
	units["StaticHeap"] = staticHeapFiles()
	opts := Options{Optimize: true, ModuleOpt: true, WireV2: true}
	ctx := context.Background()

	ref := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, PoolUnits: -1})
	s := newTestServer(t, corpusBudget)
	names := make([]string, 0, len(units))
	keys, want := map[string]Key{}, map[string]RunResult{}
	for name, files := range units {
		u, _, err := ref.CompileUnit(ctx, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = ref.RunUnitOpts(ctx, u.Key, RunOptions{}); err != nil || !want[name].OK {
			t.Fatalf("%s without a pool: %+v, %v", name, want[name], err)
		}
		if _, _, err := s.CompileUnit(ctx, files, opts); err != nil {
			t.Fatal(err)
		}
		names, keys[name] = append(names, name), u.Key
	}

	const clients = 16
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(c*7+i)%len(names)]
				if res, err := s.RunUnitOpts(ctx, keys[name], RunOptions{}); err != nil || res != want[name] {
					t.Errorf("client %d, %s: pooled %+v, %v\nunpooled %+v", c, name, res, err, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Runs != uint64(clients*len(names)) || st.PoolHits == 0 || st.PoolVerifyFails != 0 {
		t.Errorf("runs %d of %d, pool_hits %d, pool_verify_fails %d", st.Runs, clients*len(names), st.PoolHits, st.PoolVerifyFails)
	}
}

// churnFiles is a guest that builds and drops lists of two-field cells,
// rounds × 1000 of them: three allocation units each.
func churnFiles(rounds int) map[string]string {
	return map[string]string{"Churn.tj": fmt.Sprintf(`class Cell {
    int v;
    Cell next;
    Cell(int x, Cell n) { v = x; next = n; }
}
class Churn {
    static void main() {
        int total = 0;
        for (int r = 0; r < %d; r++) {
            Cell h = null;
            for (int i = 0; i < 1000; i++) {
                h = new Cell(i + r, h);
            }
            total = total + h.v;
        }
        System.out.println(total);
    }
}`, rounds)}
}

// TestChurnRetainsAtMostTheCap: a guest that allocates close to its whole
// budget, dropping what it allocates as it goes, holds tens of megabytes
// of host memory while it runs; once its session is released, at most
// rt.KeepBytes of it is pooled for the next session — the rest is the
// collector's. The pools start empty (two collections clear a sync.Pool)
// and one collection after the run moves what the release pooled to the
// pools' victim lists without dropping it, so the live heap the run added
// is what the release pooled, plus the caches the server filled for the
// unit. The live heap is the process's, so the measurement runs in a
// process of its own: in this one, what other tests left running or
// pooled moves it.
func TestChurnRetainsAtMostTheCap(t *testing.T) {
	if os.Getenv(churnChildEnv) != "" {
		measureChurn(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestChurnRetainsAtMostTheCap$", "-test.v")
	cmd.Env = append(os.Environ(), churnChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("the measuring process failed (%v):\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "live heap") {
			t.Log(strings.TrimSpace(line))
		}
	}
}

// churnChildEnv, when set, makes TestChurnRetainsAtMostTheCap the process
// that measures.
const churnChildEnv = "SAFETSA_CHURN_CHILD"

// measureChurn is TestChurnRetainsAtMostTheCap's measurement, in a process
// that has run nothing else.
func measureChurn(t *testing.T) {
	const maxAllocs = 1 << 20
	s := newTestServer(t, Config{MaxSteps: 1 << 26, MaxAllocs: maxAllocs})
	u, _, err := s.CompileUnit(context.Background(), churnFiles(340), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := s.RunUnitOpts(context.Background(), u.Key, RunOptions{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil || !res.OK || res.Allocs < maxAllocs*9/10 {
		t.Fatalf("the churn guest answered %+v, %v; want a clean run near its %d-unit budget", res, err, maxAllocs)
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d allocation units (%d B of cells), %d B of live heap added by the run", res.Allocs, res.Allocs/3*88, held)
	if held > rt.KeepBytes+churnSlack {
		t.Errorf("the released churn session left %d bytes live, want at most %d pooled plus %d of caches", held, rt.KeepBytes, churnSlack)
	}
	if held < rt.KeepBytes/2 && !raceEnabled {
		t.Errorf("the released churn session left %d bytes live; its release pooled none of its chunks", held)
	}
}

// churnSlack is what the churn run may leave live besides its pooled
// chunks: the unit's loader-cache entry, the warm snapshot it holds and
// the server's books.
const churnSlack = 1 << 20
