package safetsa

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/core"
)

// growFiles is a guest that takes every kind of the session heap to its
// largest chunk class: 600 objects, arrays and strings, and the 5 400
// slots of their fields and elements.
var growFiles = map[string]string{"Grow.tj": `class Grow {
	int v;
	static void main() {
		int s = 0;
		for (int i = 0; i < 600; i = i + 1) {
			Grow g = new Grow();
			g.v = i;
			int[] a = new int[8];
			a[7] = i;
			String t = "n" + i;
			s = s + g.v + a[7] + t.length();
		}
		System.out.println(s);
	}
}`}

// TestEveryStockIsPoisonChecked is the recycling ledger: one end-to-end
// sweep under core.PoisonRecycled — /compile, cold /run through a loader
// cache of one, pooled /run, /run-stream, and a guest that grows every
// heap kind to its top size class — must give something back to every
// stock the process registered. A stock no poisoned sweep reaches is
// recycling nothing checks.
func TestEveryStockIsPoisonChecked(t *testing.T) {
	core.PoisonRecycled(true)
	defer core.PoisonRecycled(false)
	before := core.StockCounts()
	srv, err := codeserver.New(codeserver.Config{MaxSteps: 1 << 24, MaxAllocs: 1 << 26, MaxModules: 1, PoolUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	call := func(method, path string, body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	run := func(path string, body []byte) {
		t.Helper()
		var res codeserver.RunResult
		if err := json.Unmarshal(call("POST", path, body), &res); err != nil || !res.OK {
			t.Fatalf("%s: %+v, %v", path, res, err)
		}
	}
	var hashes []string
	for _, files := range []map[string]string{growFiles, {"Hello.tj": `class Hello { static void main() { System.out.println(6*7); } }`}} {
		req, _ := json.Marshal(codeserver.CompileRequest{Files: files, Optimize: true})
		var cr codeserver.CompileResponse
		if err := json.Unmarshal(call("POST", "/compile", req), &cr); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, cr.Hash)
	}
	for _, hash := range []string{hashes[0], hashes[1], hashes[0], hashes[0]} {
		run("/run/"+hash, []byte(`{}`)) // cold, cold (the first unit let go of), cold, pooled
	}
	run("/run-stream", call("GET", "/unit/"+hashes[0], nil))

	after := core.StockCounts()
	if st := srv.Stats(); st.PoolHits == 0 || st.LoaderEvicted == 0 {
		t.Fatalf("the sweep missed a path: pool hits %d, loader evictions %d", st.PoolHits, st.LoaderEvicted)
	}
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := after[name]
		t.Logf("%s: %d poisoned gives", name, c.Poisoned-before[name].Poisoned)
		if c.Poisoned == before[name].Poisoned {
			t.Errorf("stock %s saw no Give under poison", name)
		}
	}
}
