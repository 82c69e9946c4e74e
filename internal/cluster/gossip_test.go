package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"safetsa/internal/codeserver"
)

// fleetRunTenant is fleetRun with an explicit tenant identity.
func fleetRunTenant(url, hash, tenant string) (codeserver.RunResult, int, error) {
	body, _ := json.Marshal(codeserver.RunRequest{MaxSteps: 1_000_000, Tenant: tenant})
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

// twoNodes builds a minimal a1/b2 fleet where the test owns b2's HTTP
// listener, so it can kill that peer mid-test.
func twoNodes(t *testing.T, mutA func(*codeserver.Config)) (a *Node, aURL string, bSrv *httptest.Server) {
	t.Helper()
	shA, shB := &switchHandler{}, &switchHandler{}
	tsA := httptest.NewServer(shA)
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(shB)
	// No cleanup for tsB: tests close it themselves to simulate death
	// (closing twice is safe).
	t.Cleanup(tsB.Close)

	urls := map[string]string{"a1": tsA.URL, "b2": tsB.URL}
	mk := func(name string, sh *switchHandler, mut func(*codeserver.Config)) *Node {
		ccfg := codeserver.Config{NodeName: name}
		if mut != nil {
			mut(&ccfg)
		}
		srv, err := codeserver.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(srv, Config{Self: name, Peers: urls, VNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		sh.h.Store(node.Handler())
		return node
	}
	a = mk("a1", shA, mutA)
	mk("b2", shB, nil)
	return a, tsA.URL, tsB
}

// TestGossipMarksDeadPeerUnreachable is the regression test for the
// stuck-reachable bug: GossipOnce only ever set Reachable on success, so
// a peer that died after one good exchange stayed "reachable" in every
// later fleet view. A failed refresh must now flip the flag while
// keeping the last row's data, and the row's age must keep growing
// instead of being reset.
func TestGossipMarksDeadPeerUnreachable(t *testing.T) {
	a, _, tsB := twoNodes(t, nil)

	// Healthy exchange: b2's row arrives reachable.
	a.GossipOnce(context.Background())
	view := a.FleetView(a.srv.Stats())
	var b2 *NodeStats
	for i := range view {
		if view[i].Node == "b2" {
			b2 = &view[i]
		}
	}
	if b2 == nil || !b2.Reachable {
		t.Fatalf("healthy peer not reachable in fleet view: %+v", view)
	}

	// Kill the peer. The next round must fail, keep the row data, and
	// flip Reachable — with the age still measured from the last good
	// exchange.
	tsB.Close()
	time.Sleep(5 * time.Millisecond)
	a.GossipOnce(context.Background())
	view = a.FleetView(a.srv.Stats())
	b2 = nil
	for i := range view {
		if view[i].Node == "b2" {
			b2 = &view[i]
		}
	}
	if b2 == nil {
		t.Fatal("dead peer vanished from the fleet view (stale row should be kept)")
	}
	if b2.Reachable {
		t.Error("dead peer still marked reachable after a failed gossip round")
	}
	if b2.AgeSeconds <= 0 {
		t.Errorf("dead peer age %.3fs, want > 0 (age must not reset on failure)", b2.AgeSeconds)
	}
	if a.gossipErrors.Load() == 0 {
		t.Error("failed gossip round not counted")
	}

	// A second failed round keeps the row and keeps aging it.
	prevAge := b2.AgeSeconds
	time.Sleep(5 * time.Millisecond)
	a.GossipOnce(context.Background())
	for _, row := range a.FleetView(a.srv.Stats()) {
		if row.Node != "b2" {
			continue
		}
		if row.Reachable {
			t.Error("peer resurrected without a successful exchange")
		}
		if row.AgeSeconds <= prevAge {
			t.Errorf("age stopped growing: %.3fs then %.3fs", prevAge, row.AgeSeconds)
		}
	}
}

// TestFleetStatsIsOneCut: a node's /stats reads its server once, so under
// concurrent traffic local and this node's own fleet row are the same
// snapshot. At the parent the row was a second cut, taken after local.
func TestFleetStatsIsOneCut(t *testing.T) {
	a, aURL, _ := twoNodes(t, nil)
	cr := fleetCompile(t, aURL, fleetProgram(1))

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for range 4 {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, status, err := fleetRun(aURL, cr.Hash); err != nil {
					t.Errorf("run: status %d, %v", status, err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); traffic.Wait() }()

	var first, last uint64
	for i := 0; i < 30; i++ {
		resp, err := http.Get(aURL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fs FleetStats
		err = json.NewDecoder(resp.Body).Decode(&fs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var self *NodeStats
		for i := range fs.Fleet {
			if fs.Fleet[i].Node == a.Self() {
				self = &fs.Fleet[i]
			}
		}
		if self == nil {
			t.Fatalf("no row for %s in %+v", a.Self(), fs.Fleet)
		}
		if !reflect.DeepEqual(self.Stats, fs.Local) {
			t.Fatalf("read %d: the self row is another cut than local:\nrow   %+v\nlocal %+v", i, self.Stats, fs.Local)
		}
		if i == 0 {
			first = fs.Local.Runs
		}
		last = fs.Local.Runs
	}
	if last == first {
		t.Errorf("runs stayed at %d over every read: no traffic ran alongside them", first)
	}
}

// TestClusterRunCarriesTenant: tenant identity and the fair-admission
// gate work through the cluster handler (the run hop every fleet request
// takes), and the rejection total reaches the gossip row.
func TestClusterRunCarriesTenant(t *testing.T) {
	a, aURL, _ := twoNodes(t, func(c *codeserver.Config) { c.TenantMaxInFlight = 1 })

	cr := fleetCompile(t, aURL, fleetProgram(1))
	loop, _, err := a.srv.CompileUnit(context.Background(), map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, codeserver.Options{})
	if err != nil {
		t.Fatal(err)
	}

	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = a.srv.RunUnitOpts(runCtx, loop.Key, codeserver.RunOptions{Tenant: "bob"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.srv.Stats().RunsInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("filler run never started")
		}
		time.Sleep(time.Millisecond)
	}

	// bob is at his bound: the cluster /run path must say 429.
	if _, status, _ := fleetRunTenant(aURL, cr.Hash, "bob"); status != 429 {
		t.Errorf("bob over bound got status %d, want 429", status)
	}
	// alice is unaffected and her run is accounted to her.
	rr, status, err := fleetRunTenant(aURL, cr.Hash, "alice")
	if err != nil || status != 200 || !rr.OK {
		t.Fatalf("alice run: status %d rr %+v err %v", status, rr, err)
	}

	cancel()
	<-done

	st := a.srv.Stats()
	if st.Tenants["alice"].Runs != 1 {
		t.Errorf("alice runs = %d, want 1", st.Tenants["alice"].Runs)
	}
	if st.Tenants["bob"].Rejects != 1 {
		t.Errorf("bob rejects = %d, want 1", st.Tenants["bob"].Rejects)
	}
	if row := a.localRow(a.srv.Stats()); row.TenantRejects != 1 {
		t.Errorf("gossip row tenant_rejects = %d, want 1", row.TenantRejects)
	}
}
