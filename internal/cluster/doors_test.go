package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// TestUnsolicitedWriteCannotRebindHash: nothing a client or peer sends
// unasked can change which program a hash names. The old replica push
// (PUT /peer/replicate/{hash}, live even with replication disabled)
// re-verified the bytes it was sent — any valid unit passes — and then
// wrote them over <hash>.tsa, so after a restart the victim's hash ran,
// and its own sources "compiled" to, the sender's program.
func TestUnsolicitedWriteCannotRebindHash(t *testing.T) {
	f := newFleet(t, []string{"solo"})
	url, dir := f.urls["solo"], f.dirs["solo"]
	a := fleetCompile(t, url, fleetProgram(1))
	b := fleetCompile(t, url, fleetProgram(2))
	aBytes, bBytes := fetchUnitBytes(t, url, a.Hash), fetchUnitBytes(t, url, b.Hash)

	for _, method := range []string{http.MethodPut, http.MethodPost} {
		if status := sendUnit(t, method, url+"/peer/replicate/"+a.Hash, bBytes); status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
			t.Errorf("%s /peer/replicate/<hash> answered %d, want 404 or 405", method, status)
		}
	}

	// The restart: what the directory holds is all the new server knows.
	fresh, err := codeserver.New(codeserver.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k, err := codeserver.ParseKey(a.Hash)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.RunUnit(context.Background(), k, 1_000_000)
	if err != nil || !res.OK || res.Output != "p8\n" {
		t.Errorf("run of A's hash after restart = %+v, %v; want A's output %q", res, err, "p8\n")
	}
	u, _, err := fresh.CompileUnit(context.Background(), fleetProgram(1), codeserver.Options{})
	if err != nil || !bytes.Equal(u.Wire, aBytes) {
		t.Errorf("compile of A's sources after restart does not answer A's bytes (err %v)", err)
	}
}

// TestPeerRoutesAcceptNoWrites: the peer API answers requests; no route
// under /peer/ takes a write, whatever unit rides in the body.
func TestPeerRoutesAcceptNoWrites(t *testing.T) {
	f := newFleet(t, []string{"solo"})
	url, srv := f.urls["solo"], f.srvs["solo"]
	a := fleetCompile(t, url, fleetProgram(1))
	body := fetchUnitBytes(t, url, fleetCompile(t, url, fleetProgram(2)).Hash)
	before, files := srv.Stats(), dirNames(t, f.dirs["solo"])

	for _, path := range []string{"/peer/unit/" + a.Hash, "/peer/compile", "/peer/stats", "/peer/replicate/" + a.Hash} {
		for _, method := range []string{http.MethodPut, http.MethodPatch, http.MethodDelete} {
			if status := sendUnit(t, method, url+path, body); status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
				t.Errorf("%s %s answered %d, want 404 or 405", method, path, status)
			}
		}
	}
	if after := srv.Stats(); after.UnitsCached != before.UnitsCached || after.PeerFills != before.PeerFills {
		t.Errorf("refused writes changed the store: %d units, %d peer fills; were %d, %d",
			after.UnitsCached, after.PeerFills, before.UnitsCached, before.PeerFills)
	}
	if now := dirNames(t, f.dirs["solo"]); !slices.Equal(now, files) {
		t.Errorf("refused writes changed the cache directory: %v, was %v", now, files)
	}
}

func sendUnit(t *testing.T, method, url string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// assertNothingCached is the one checker behind every door into the
// store. srv has just refused bytes offered as the unit for k (before is
// its Stats and files the names in its cache directory from just before
// the attempt): nothing of them may be anywhere a later request could find
// — not the store's memory tier, not the cache directory (temp files
// included), not the loader cache — the refusal moved rejects reject
// counters and nothing that reports a success, and it was not remembered
// against the key: honest, the same door given the true bytes, succeeds.
func assertNothingCached(t *testing.T, srv *codeserver.Server, dir string, k codeserver.Key, before codeserver.Stats, files []string, rejects uint64, honest func() error) {
	t.Helper()
	if _, ok := srv.Unit(context.Background(), k); ok {
		t.Errorf("refused unit %s is served by the store", k)
	}
	if names := dirNames(t, dir); !slices.Equal(names, files) {
		t.Errorf("the refusal changed the cache directory: %v, was %v", names, files)
	}
	after := srv.Stats()
	if after.UnitsCached != before.UnitsCached || after.ModulesLoaded != before.ModulesLoaded {
		t.Errorf("after a refusal the store holds %d units and the loader %d modules; before, %d and %d",
			after.UnitsCached, after.ModulesLoaded, before.UnitsCached, before.ModulesLoaded)
	}
	if got := (after.PeerFillRejects + after.StreamRejects) - (before.PeerFillRejects + before.StreamRejects); got != rejects {
		t.Errorf("the refusal moved the reject counters by %d, want %d", got, rejects)
	}
	if after.PeerFills != before.PeerFills || after.DiskHits != before.DiskHits ||
		after.CacheHits != before.CacheHits || after.Loads != before.Loads {
		t.Errorf("a refusal was counted as a success: %+v, before %+v", after, before)
	}
	if err := honest(); err != nil {
		t.Errorf("the honest unit was refused after a refusal of the same door: %v", err)
	}
}

// door is one way bytes this node did not produce reach its store, opened
// on a fresh node with an empty store and cache directory.
type door struct {
	srv  *codeserver.Server
	dir  string
	good []byte // the true unit
	// keyOf is the key data is offered under: the source hash the node
	// asked for, or — on the one door whose keys bind themselves — the
	// hash of data.
	keyOf func(data []byte) codeserver.Key
	// send offers data through the door and reports what the caller saw.
	send func(data []byte) error
	// rejects is how far one refusal moves the reject counters.
	rejects uint64
	// decodes is how many decode samples the honest unit's first run books
	// after coming in through this door: 0 where the run's own lookup led
	// the admission and was handed the module, 2 where the unit was
	// resident as bytes by then — the loader opens a cursor over them, and
	// the run pulls main, the one body it calls.
	decodes uint64
}

func runOK(res codeserver.RunResult, err error) error {
	if err == nil && !res.OK {
		err = errors.New(res.Error)
	}
	return err
}

// scratchUnit is a true unit, compiled by a server that is not the door's.
func scratchUnit(t *testing.T) *codeserver.Unit {
	t.Helper()
	scratch, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := scratch.CompileUnit(context.Background(), fleetProgram(1), codeserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// diskServer is a standalone server over an empty cache directory.
func diskServer(t *testing.T) (*codeserver.Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := codeserver.New(codeserver.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv, dir
}

type doorRow struct {
	name string
	open func(t *testing.T) door
}

// The four doors bytes come in through. Each is a fill: the node asked for
// the key.
var doors = []doorRow{
	{"peer fill on run miss", func(t *testing.T) door {
		fx := newCorruptPeerFixture(t)
		return door{srv: fx.srv, dir: fx.cacheDir, good: fx.good, rejects: 1, decodes: 0,
			keyOf: func([]byte) codeserver.Key { return fx.key },
			send: func(data []byte) error {
				fx.serve = func() []byte { return data }
				return runOK(fx.srv.RunUnit(context.Background(), fx.key, 1_000_000))
			}}
	}},
	{"forwarded compile", func(t *testing.T) door {
		fx := newCorruptPeerFixture(t)
		return door{srv: fx.srv, dir: fx.cacheDir, good: fx.good, rejects: 1, decodes: 2,
			keyOf: func([]byte) codeserver.Key { return fx.key },
			send: func(data []byte) error {
				fx.serve = func() []byte { return data }
				_, _, err := fx.victim.Compile(context.Background(), fx.files, codeserver.Options{})
				return err
			}}
	}},
	// The disk tier has no reject counter: a file it refuses is a miss,
	// which must not be a disk hit and leaves the run with nothing to load.
	// The server has never seen the unit: this is the node after a restart.
	{"disk re-admission", func(t *testing.T) door {
		u := scratchUnit(t)
		srv, dir := diskServer(t)
		return door{srv: srv, dir: dir, good: u.Wire, rejects: 0, decodes: 0,
			keyOf: func([]byte) codeserver.Key { return u.Key },
			send: func(data []byte) error {
				if err := os.WriteFile(filepath.Join(dir, u.Key.String()+".tsa"), data, 0o644); err != nil {
					t.Fatal(err)
				}
				return runOK(srv.RunUnit(context.Background(), u.Key, 1_000_000))
			}}
	}},
	{"run-stream", func(t *testing.T) door {
		srv, dir := diskServer(t)
		return door{srv: srv, dir: dir, good: scratchUnit(t).Wire, rejects: 1, decodes: 2,
			keyOf: codeserver.KeyForWire, send: streamTo(t, srv)}
	}},
}

// streamTo is the stream door of srv: it refuses only with a verify-kind
// error.
func streamTo(t *testing.T, srv *codeserver.Server) func(data []byte) error {
	return func(data []byte) error {
		res, err := srv.RunUnitStream(context.Background(), bytes.NewReader(data), codeserver.RunOptions{MaxSteps: 1_000_000})
		if err != nil && driver.KindOf(err) != driver.KindVerify {
			t.Errorf("the stream door refused with a %s-kind error: %v", driver.KindOf(err), err)
		}
		return runOK(res.RunResult, err)
	}
}

// behindUnit is a true unit whose last body on the wire is one its main
// never calls, compiled by a server that is not the door's.
func behindUnit(t *testing.T) *codeserver.Unit {
	t.Helper()
	scratch, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := scratch.CompileUnit(context.Background(), map[string]string{"P.tj": `
class P {
    static int used(int n) { return n + 1; }
    static void main() { System.out.println(used(41)); }
    static int unused(int n) { return n * n - 1; }
}`}, codeserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// residentStreamDoor is the stream door of a node that already holds the
// true unit, streamed to it once: bytes identical to it are vouched for by
// the store, so what the cursor never decodes there is the tail of a copy
// that differs. Its good unit is the one the "damage behind a guest that
// ran" mangle damages, so that row is the resident unit streamed again
// with its tail flipped or cut.
var residentStreamDoor = doorRow{"run-stream of a resident unit", func(t *testing.T) door {
	srv, dir := diskServer(t)
	send := streamTo(t, srv)
	good := behindUnit(t).Wire
	if err := send(good); err != nil {
		t.Fatal(err)
	}
	return door{srv: srv, dir: dir, good: good, rejects: 1, keyOf: codeserver.KeyForWire, send: send}
}}

// compileDoor is the fifth way in, and the one no bytes arrive through:
// the node's own producer stands behind the unit, so there is nothing to
// mangle. It keeps its one decode — a unit never runs without having been
// through the decoder.
var compileDoor = doorRow{"compile", func(t *testing.T) door {
	srv, dir := diskServer(t)
	k := codeserver.KeyFor(fleetProgram(1), codeserver.Options{})
	return door{srv: srv, dir: dir, good: scratchUnit(t).Wire, decodes: 2,
		keyOf: func([]byte) codeserver.Key { return k },
		send: func([]byte) error {
			_, _, err := srv.CompileUnit(context.Background(), fleetProgram(1), codeserver.Options{})
			return err
		}}
}}

// mangles are the ways a unit arrives damaged; each yields the damaged
// copies of good to try, every one of which local admission refuses.
var mangles = []struct {
	name string
	of   func(t *testing.T, good []byte) [][]byte
}{
	{"bit flip", func(t *testing.T, good []byte) [][]byte {
		// Some flips (inside a string constant, say) leave a different but
		// still safe unit, which is admissible by design: take the first
		// that does not.
		for i := range good {
			bad := bytes.Clone(good)
			bad[i] ^= 0x40
			if _, err := wire.DecodeVerified(bad); err != nil {
				return [][]byte{bad}
			}
		}
		t.Fatal("no byte flip breaks verification")
		return nil
	}},
	{"truncation", func(t *testing.T, good []byte) (out [][]byte) {
		for cut := 0; cut < len(good); cut += 3 {
			out = append(out, good[:cut:cut])
		}
		return out
	}},
	{"appended garbage", func(t *testing.T, good []byte) [][]byte {
		return [][]byte{append(bytes.Clone(good), "\x00garbage"...)}
	}},
	// Not a copy of good either: a unit whose main ends before its last
	// function is asked for, damaged only there. The stream door's guest
	// has run to its end, on functions lowered as it called them, by the
	// time the cursor meets the damage.
	{"damage behind a guest that ran", func(t *testing.T, _ []byte) (out [][]byte) {
		u := behindUnit(t)
		su, err := wire.DecodeVerifiedStream(bytes.NewReader(u.Wire), wire.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		last := su.NumFuncs() - 1
		if err := su.WaitFunc(last - 1); err != nil {
			t.Fatal(err)
		}
		tail := int(su.Offset()) // where the last function starts
		if err := su.WaitFunc(last); err != nil || !strings.HasSuffix(su.Mod.FuncName(su.Mod.Funcs[last]), "unused") {
			t.Fatalf("the last function on the wire is %s (%v), want the one main does not call", su.Mod.FuncName(su.Mod.Funcs[last]), err)
		}
		out = append(out, u.Wire[:tail+1:tail+1], u.Wire[:len(u.Wire)-1:len(u.Wire)-1])
		for i := tail; i < len(u.Wire); i++ {
			bad := bytes.Clone(u.Wire)
			bad[i] ^= 0x40
			if _, err := wire.DecodeVerified(bad); err != nil {
				return append(out, bad)
			}
		}
		t.Fatal("no byte flip in the last function breaks verification")
		return nil
	}},
	// Not a copy of good at all: the head (wire v1) of class M { static
	// void main() { } }, whose tables place two bodies, and then nothing.
	// The tables are admitted, so the stream door's session begins before
	// the refusal.
	{"declared function count", func(t *testing.T, _ []byte) [][]byte {
		bad := []byte("STSD\x08\x29\xae\x01\xbc\x46\xd6\x16\x96\xe0\x05\xe0\xa6\x80\x16\x03\x05\x84\xcf\x80")
		su, err := wire.DecodeVerifiedStream(bytes.NewReader(bad), wire.DecodeOptions{})
		if err != nil || su.NumFuncs() != 2 || su.Wait() == nil {
			t.Fatalf("the literal is no longer a head placing two bodies and no body (open: %v)", err)
		}
		return [][]byte{bad}
	}},
}

// TestNothingRejectedIsCachedThroughAnyDoor is north-star 3 as one table:
// every remaining door into the store, times every way a unit arrives
// damaged, through the one checker.
func TestNothingRejectedIsCachedThroughAnyDoor(t *testing.T) {
	for _, d := range append(slices.Clone(doors), residentStreamDoor) {
		for _, m := range mangles {
			t.Run(d.name+"/"+m.name, func(t *testing.T) {
				dr := d.open(t)
				for i, bad := range m.of(t, dr.good) {
					if i > 0 {
						dr = d.open(t) // every refusal meets a fresh node
					}
					before, files := dr.srv.Stats(), dirNames(t, dr.dir)
					if err := dr.send(bad); err == nil {
						t.Fatalf("damaged unit %d (%d of %d bytes) was accepted", i, len(bad), len(dr.good))
					}
					assertNothingCached(t, dr.srv, dr.dir, dr.keyOf(bad), before, files, dr.rejects, func() error {
						if err := dr.send(dr.good); err != nil {
							return err
						}
						if u, ok := dr.srv.Unit(context.Background(), dr.keyOf(dr.good)); !ok || !bytes.Equal(u.Wire, dr.good) {
							return errors.New("the honest unit ran but is not in the store")
						}
						return nil
					})
					if t.Failed() {
						t.Fatalf("damaged unit %d (%d of %d bytes)", i, len(bad), len(dr.good))
					}
				}
			})
		}
	}
}

// TestDoorsHandOverWhatTheyProved: a node decodes a unit once. Whatever
// door the honest unit comes in through, its first run lowers it once, and
// the loader decodes the bytes itself — their tables at load, each body
// its guest calls on first call — only where no admission of this run's own
// making handed it the module: the peer fill and the disk re-admission a
// run leads do (the parent decoded twice there: once at the door, once in
// the loader); the compile door keeps its decode by decision, the stream
// door publishes bytes only, and a forwarded compile's module is dropped
// with the compile answer. The disk tier is one file per unit.
func TestDoorsHandOverWhatTheyProved(t *testing.T) {
	for _, d := range append(slices.Clone(doors), compileDoor) {
		t.Run(d.name, func(t *testing.T) {
			dr := d.open(t)
			if err := dr.send(dr.good); err != nil {
				t.Fatalf("the honest unit was refused: %v", err)
			}
			k := dr.keyOf(dr.good)
			// The first /run of the hash — or, through the two doors a run
			// opens, a second one, which must find everything resident.
			if err := runOK(dr.srv.RunUnit(context.Background(), k, 1_000_000)); err != nil {
				t.Fatalf("run after the door: %v", err)
			}
			st := dr.srv.Stats()
			if st.Loads != 1 || st.DecodeLatency.Count != dr.decodes || st.VerifyLatency.Count != 0 {
				t.Errorf("loads %d, loader decodes %d, verifies %d; want 1, %d, 0",
					st.Loads, st.DecodeLatency.Count, st.VerifyLatency.Count, dr.decodes)
			}
			if names, want := dirNames(t, dr.dir), []string{k.String() + ".tsa"}; !slices.Equal(names, want) {
				t.Errorf("the cache directory holds %v, want %v and nothing else", names, want)
			}
		})
	}
}

// TestPeerAnswersAreBytesOnly: what a peer says about a unit is its bytes.
// Nothing rides beside them — an optimization-flag header did — so what
// the asking node knows about the unit is what its own admission proved.
func TestPeerAnswersAreBytesOnly(t *testing.T) {
	f := newFleet(t, []string{"solo"})
	url := f.urls["solo"]
	cr := fleetCompileReq(t, url, codeserver.CompileRequest{Files: fleetProgram(1), Optimize: true})
	want := fetchUnitBytes(t, url, cr.Hash)

	body, _ := json.Marshal(codeserver.CompileRequest{Files: fleetProgram(1), Optimize: true})
	get, err := http.Get(url + "/peer/unit/" + cr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(url+"/peer/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range map[string]*http.Response{"/peer/unit": get, "/peer/compile": post} {
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, err %v, %d bytes; want the unit's %d bytes", name, resp.StatusCode, err, len(got), len(want))
		}
		for h := range resp.Header {
			if strings.HasPrefix(h, "X-Safetsa-") {
				t.Errorf("%s answers with header %s: %q", name, h, resp.Header[h])
			}
		}
	}
}

// TestCompileResponseOptimized: "optimized" in a compile answer is a fact
// about what was asked for, computed from the resolved request options, so
// every path that can answer says the same: the producer that just ran, a
// memory hit, a node that forwarded the compile to the owner, and a disk
// hit on a restarted node — the last two used to carry it in a peer header
// and a .json sidecar.
func TestCompileResponseOptimized(t *testing.T) {
	for _, tc := range []struct {
		name      string
		moduleOpt bool // the server's Config.ModuleOpt
		optimize  bool // the request's
		want      bool
	}{
		{"optimize false", false, false, false},
		{"optimize true", false, true, true},
		{"server ModuleOpt, optimize true", true, true, true},
		{"server ModuleOpt, optimize false", true, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := codeserver.Config{ModuleOpt: tc.moduleOpt}
			f := newFleetOf(t, []string{"a1", "b2"}, cfg)
			req := codeserver.CompileRequest{Files: fleetProgram(3), Optimize: tc.optimize}
			k := codeserver.KeyFor(req.Files, f.srvs["a1"].ResolveOptions(codeserver.Options{Optimize: tc.optimize}))
			owner := f.owner(k)
			other := "a1"
			if owner == "a1" {
				other = "b2"
			}

			// The restarted owner: a fresh server over the owner's directory.
			restarted := func() string {
				cfg.CacheDir = f.dirs[owner]
				srv, err := codeserver.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				return ts.URL
			}
			for _, path := range []struct {
				name   string
				url    func() string
				cached bool
			}{
				{"fresh", func() string { return f.urls[owner] }, false},
				{"memory hit", func() string { return f.urls[owner] }, true},
				{"forwarded on a non-owner", func() string { return f.urls[other] }, false},
				{"disk hit after restart", restarted, true},
			} {
				cr := fleetCompileReq(t, path.url(), req)
				if cr.Hash != k.String() || cr.Cached != path.cached || cr.Optimized != tc.want {
					t.Errorf("%s: hash %s cached %v optimized %v; want %s, %v, %v",
						path.name, cr.Hash, cr.Cached, cr.Optimized, k, path.cached, tc.want)
				}
			}
			if n := f.srvs[owner].Stats().Compiles + f.srvs[other].Stats().Compiles; n != 1 {
				t.Errorf("the four answers cost %d compiles, want 1", n)
			}
		})
	}
}
