package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/wire"
)

// switchHandler lets an httptest server come up before the Node whose
// handler it will serve exists: the fleet needs every member's URL to
// build its ring, and every member needs its handler served at that URL.
type switchHandler struct{ h atomic.Value }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// fleet is a 3-node in-process cluster: real codeservers, real HTTP
// between members, separate disk tiers.
type fleet struct {
	names []string
	urls  map[string]string
	dirs  map[string]string // each member's CacheDir
	srvs  map[string]*codeserver.Server
	nodes map[string]*Node
}

func newFleet(t *testing.T, names []string) *fleet {
	t.Helper()
	return newFleetOf(t, names, codeserver.Config{})
}

// newFleetOf builds the fleet from members that share the server
// configuration srvCfg (node name and disk tier are per member).
func newFleetOf(t *testing.T, names []string, srvCfg codeserver.Config) *fleet {
	t.Helper()
	f := &fleet{
		names: names,
		urls:  make(map[string]string),
		dirs:  make(map[string]string),
		srvs:  make(map[string]*codeserver.Server),
		nodes: make(map[string]*Node),
	}
	handlers := make(map[string]*switchHandler)
	for _, name := range names {
		sh := &switchHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		handlers[name] = sh
		f.urls[name] = ts.URL
	}
	for _, name := range names {
		f.dirs[name] = t.TempDir()
		srvCfg.NodeName, srvCfg.CacheDir = name, f.dirs[name]
		srv, err := codeserver.New(srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(srv, Config{Self: name, Peers: f.urls, VNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		handlers[name].h.Store(node.Handler())
		f.srvs[name] = srv
		f.nodes[name] = node
	}
	return f
}

func (f *fleet) owner(k codeserver.Key) string {
	return f.nodes[f.names[0]].Ring().Owner(k.String())
}

// fleetProgram is the i-th distinct tiny guest: distinct source → a
// distinct content key, terminating run, deterministic output.
func fleetProgram(i int) map[string]string {
	return map[string]string{"P.tj": fmt.Sprintf(`
class P {
    static void main() {
        System.out.println("p" + (%d * 7 + %d));
    }
}`, i, i)}
}

func fleetCompile(t *testing.T, url string, files map[string]string) codeserver.CompileResponse {
	t.Helper()
	return fleetCompileReq(t, url, codeserver.CompileRequest{Files: files})
}

func fleetCompileReq(t *testing.T, url string, req codeserver.CompileRequest) codeserver.CompileResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("compile via %s: status %d: %s", url, resp.StatusCode, b)
	}
	var cr codeserver.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func fleetRun(url, hash string) (codeserver.RunResult, int, error) {
	body, _ := json.Marshal(codeserver.RunRequest{MaxSteps: 1_000_000})
	resp, err := http.Post(url+"/run/"+hash, "application/json", bytes.NewReader(body))
	if err != nil {
		return codeserver.RunResult{}, 0, err
	}
	defer resp.Body.Close()
	var rr codeserver.RunResult
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&rr)
	} else {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		err = fmt.Errorf("run status %d: %s", resp.StatusCode, b)
	}
	return rr, resp.StatusCode, err
}

// TestFleetSingleCompilePerUnit is the headline cluster invariant: under
// concurrent mixed compile/run traffic sprayed across every node, each
// unit key is compiled exactly once fleet-wide — by its ring owner — and
// every node ends up serving byte-identical, locally re-verified units.
func TestFleetSingleCompilePerUnit(t *testing.T) {
	names := []string{"a1", "b2", "c3"}
	f := newFleet(t, names)

	const units = 6
	keys := make([]codeserver.Key, units)
	hashes := make([]string, units)
	for i := 0; i < units; i++ {
		keys[i] = codeserver.KeyFor(fleetProgram(i), codeserver.Options{})
		hashes[i] = keys[i].String()
	}

	const workers = 32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 12; i++ {
				unit := rng.Intn(units)
				node := names[rng.Intn(len(names))]
				if i%2 == 0 {
					body, _ := json.Marshal(codeserver.CompileRequest{Files: fleetProgram(unit)})
					resp, err := http.Post(f.urls[node]+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("compile on %s: status %d: %s", node, resp.StatusCode, b)
						return
					}
				} else {
					rr, status, err := fleetRun(f.urls[node], hashes[unit])
					if status == http.StatusNotFound {
						continue // no worker has compiled this unit yet
					}
					if err != nil {
						errCh <- fmt.Errorf("run on %s: %w", node, err)
						return
					}
					want := fmt.Sprintf("p%d\n", unit*7+unit)
					if !rr.OK || rr.Output != want {
						errCh <- fmt.Errorf("run %d on %s: %+v, want output %q", unit, node, rr, want)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// (a) Exactly one compile per unit fleet-wide, and only on the owner.
	wantCompiles := map[string]uint64{}
	for i := 0; i < units; i++ {
		wantCompiles[f.owner(keys[i])]++
	}
	var total uint64
	for _, name := range names {
		st := f.srvs[name].Stats()
		total += st.Compiles
		if st.Compiles != wantCompiles[name] {
			t.Errorf("node %s ran %d compiles, want %d (its owned share)", name, st.Compiles, wantCompiles[name])
		}
		if st.CompileErrors != 0 {
			t.Errorf("node %s recorded %d compile errors", name, st.CompileErrors)
		}
		if st.PeerFillRejects != 0 {
			t.Errorf("node %s rejected %d honest peer fills", name, st.PeerFillRejects)
		}
	}
	if total != units {
		t.Errorf("fleet ran %d compiles for %d units", total, units)
	}

	// (b) Every node serves every unit byte-identical to the owner's
	// encoding, and the served bytes re-verify.
	for i := 0; i < units; i++ {
		ownerBytes := fetchUnitBytes(t, f.urls[f.owner(keys[i])], hashes[i])
		if _, err := wire.DecodeVerified(ownerBytes); err != nil {
			t.Fatalf("owner unit %d does not verify: %v", i, err)
		}
		for _, name := range names {
			got := fetchUnitBytes(t, f.urls[name], hashes[i])
			if !bytes.Equal(got, ownerBytes) {
				t.Errorf("unit %d from %s differs from owner encoding", i, name)
			}
		}
	}

	// Peer fills happened (non-owners served the units) and none were
	// trusted blindly: the fill counters on non-owner nodes are non-zero.
	var fills uint64
	for _, name := range names {
		fills += f.srvs[name].Stats().PeerFills
	}
	if fills == 0 {
		t.Error("no peer fills recorded — traffic never crossed node boundaries")
	}
}

// TestFleetCompileOneHashFromEveryNode: a unit has one content address
// in the fleet whichever member was asked to compile it. The members
// run a non-default server configuration (wire v2) and the request asks
// for the interprocedural tier, so the hash depends on options the
// routing layer has to resolve and forward exactly as the owner does;
// a node that hashes or forwards anything else mints a second address
// that the other members answer 404 for.
func TestFleetCompileOneHashFromEveryNode(t *testing.T) {
	names := []string{"a1", "b2", "c3"}
	f := newFleetOf(t, names, codeserver.Config{WireVersion: 2})

	req := codeserver.CompileRequest{Files: fleetProgram(4), ModuleOpt: true}
	want := codeserver.KeyFor(req.Files,
		codeserver.Options{Optimize: true, ModuleOpt: true, WireV2: true}).String()
	for _, name := range names {
		if cr := fleetCompileReq(t, f.urls[name], req); cr.Hash != want {
			t.Errorf("compile via %s minted %s, want %s", name, cr.Hash, want)
		}
	}
	var compiles uint64
	for _, name := range names {
		compiles += f.srvs[name].Stats().Compiles
	}
	if compiles != 1 {
		t.Errorf("fleet ran %d compiles for one unit", compiles)
	}
	for _, name := range names {
		rr, status, err := fleetRun(f.urls[name], want)
		if err != nil || status != http.StatusOK {
			t.Fatalf("run on %s: status %d, err %v", name, status, err)
		}
		if !rr.OK || rr.Output != "p32\n" {
			t.Errorf("run on %s: %+v, want output %q", name, rr, "p32\n")
		}
	}
}

func fetchUnitBytes(t *testing.T, url, hash string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/unit/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unit fetch from %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return data
}

// TestFleetForwardedCompileKeepsErrorKind: a compile whose source is
// broken must come back as the same 4xx class from every node — the
// owner's parse/sema classification survives the peer hop instead of
// collapsing into a 500.
func TestFleetForwardedCompileKeepsErrorKind(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"})
	bad := map[string]string{"Bad.tj": "class Bad { static void main() { int x = \"notanint\"; } }"}
	for _, name := range f.names {
		body, _ := json.Marshal(codeserver.CompileRequest{Files: bad})
		resp, err := http.Post(f.urls[name]+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er codeserver.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("node %s: bad source compile status %d, want 400", name, resp.StatusCode)
		}
		if er.Kind != "sema" && er.Kind != "parse" {
			t.Errorf("node %s: error kind %q, want a user-program kind", name, er.Kind)
		}
	}
}

// TestFleetStatsGossip: after traffic and a gossip round, every node's
// /stats reports a fleet view covering all three members with their
// per-node counters.
func TestFleetStatsGossip(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"})
	cr := fleetCompile(t, f.urls["a1"], fleetProgram(0))
	for _, name := range f.names {
		if rr, _, err := fleetRun(f.urls[name], cr.Hash); err != nil || !rr.OK {
			t.Fatalf("run on %s: %+v err %v", name, rr, err)
		}
	}
	for _, name := range f.names {
		f.nodes[name].GossipOnce(context.Background())
	}

	resp, err := http.Get(f.urls["b2"] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Node != "b2" {
		t.Errorf("stats node %q, want b2", fs.Node)
	}
	if len(fs.Ring.Nodes) != 3 || fs.Ring.VNodes != 16 {
		t.Errorf("ring info %+v", fs.Ring)
	}
	if len(fs.Fleet) != 3 {
		t.Fatalf("fleet view has %d rows, want 3: %+v", len(fs.Fleet), fs.Fleet)
	}
	var runs uint64
	for _, row := range fs.Fleet {
		if !row.Reachable {
			t.Errorf("fleet row %s unreachable", row.Node)
		}
		runs += row.Runs
	}
	if runs != 3 {
		t.Errorf("fleet view reports %d runs, want 3", runs)
	}
	if fs.GossipErrors != 0 {
		t.Errorf("gossip errors: %d", fs.GossipErrors)
	}
	if fs.Local.Node != "b2" {
		t.Errorf("local stats node %q", fs.Local.Node)
	}
}

// TestFleetCompileTraces: every compile route is the one handler, so a
// request explains itself the same way wherever it lands — the node asked
// shows read, key, the store's spans (a peer fill, when it forwarded) and
// respond; the owner that compiled on its behalf shows the same frame
// around the producer's stages; and a repeat is read, key, respond on the
// node asked and no request to the owner at all.
func TestFleetCompileTraces(t *testing.T) {
	f := newFleet(t, []string{"n1", "n2", "n3"})
	files := fleetProgram(7)
	owner := f.owner(codeserver.KeyFor(files, codeserver.Options{}))
	asked := f.names[0]
	if asked == owner {
		asked = f.names[1]
	}
	if cr := fleetCompile(t, f.urls[asked], files); cr.Cached {
		t.Fatal("first compile reported cached")
	}
	if cr := fleetCompile(t, f.urls[asked], files); !cr.Cached {
		t.Fatal("second compile not served from the asked node's store")
	}

	type span struct {
		Name     string `json:"name"`
		Children []span `json:"children"`
	}
	traces := func(node string) (shapes []string) {
		resp, err := http.Get(f.urls[node] + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Traces []struct {
				Name  string `json:"name"`
				Spans []span `json:"spans"`
			} `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		for _, tr := range got.Traces {
			shape := tr.Name + ":"
			for _, sp := range tr.Spans {
				shape += " " + sp.Name
				if sp.Name == "fill" && len(sp.Children) > 0 {
					shape += "(" + sp.Children[0].Name + ")"
				}
			}
			shapes = append(shapes, shape)
		}
		return shapes
	}
	want := []string{"compile: read key respond", "compile: read key disk fill(peer_fill) respond"}
	if got := traces(asked); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traces on the node asked = %q, want %q", got, want)
	}
	want = []string{"compile: read key disk fill(frontend) respond"}
	if got := traces(owner); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traces on the owner = %q, want %q", got, want)
	}
}
