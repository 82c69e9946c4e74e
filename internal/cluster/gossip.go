package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"safetsa/internal/codeserver"
)

// NodeStats is the per-node row exchanged over gossip and aggregated
// into the fleet view: the node's own /stats snapshot (its keys
// flattened into the row) plus what only the cluster layer knows.
type NodeStats struct {
	codeserver.Stats
	Forwards uint64 `json:"forwards"`
	// AgeSeconds is how stale this row was at snapshot time: 0 for the
	// reporting node itself, the time since the last successful gossip
	// exchange for a peer row.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// Reachable is false when the last gossip attempt for this peer
	// failed — whether a row was ever obtained (the stale data is kept,
	// with AgeSeconds growing) or not (an otherwise-empty row).
	Reachable bool `json:"reachable"`

	fetchedAt time.Time
}

// FleetStats is what a cluster node serves on GET /stats: the full local
// snapshot plus the gossiped fleet view, keyed for humans and the load
// generator alike.
type FleetStats struct {
	Node         string           `json:"node"`
	Ring         RingInfo         `json:"ring"`
	Local        codeserver.Stats `json:"local"`
	Fleet        []NodeStats      `json:"fleet"`
	GossipErrors uint64           `json:"gossip_errors"`
}

// RingInfo describes the placement ring for /stats consumers.
type RingInfo struct {
	Nodes  []string `json:"nodes"`
	VNodes int      `json:"vnodes"`
}

// localRow is this node's gossip row around its snapshot st.
func (n *Node) localRow(st codeserver.Stats) NodeStats {
	return NodeStats{Stats: st, Forwards: n.forwards.Load(), Reachable: true}
}

// FleetView assembles the fleet rows around this node's snapshot local:
// this node's row is that cut, peers' are as last gossiped (with
// staleness annotated).
func (n *Node) FleetView(local codeserver.Stats) []NodeStats {
	now := time.Now()
	rows := make([]NodeStats, 0, len(n.cfg.Peers))
	rows = append(rows, n.localRow(local))
	n.gmu.Lock()
	for name := range n.cfg.Peers {
		if name == n.cfg.Self {
			continue
		}
		row, ok := n.fleet[name]
		if !ok {
			rows = append(rows, NodeStats{Stats: codeserver.Stats{Node: name}})
			continue
		}
		row.AgeSeconds = now.Sub(row.fetchedAt).Seconds()
		rows = append(rows, row)
	}
	n.gmu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	return rows
}

// GossipOnce refreshes the stats row of every peer (sequentially; the
// fleet is small and the rows are tiny). A failed peer keeps its last
// row data — a transient blip must not blank the fleet view — but the
// row is marked unreachable and its fetchedAt stands still, so the
// staleness keeps growing until the peer answers again. (It used to
// only ever set Reachable on success, so a peer that died after one
// good exchange was reported reachable forever.)
func (n *Node) GossipOnce(ctx context.Context) {
	for name := range n.cfg.Peers {
		if name == n.cfg.Self {
			continue
		}
		row, err := n.fetchPeerStats(ctx, name)
		if err != nil {
			n.gossipErrors.Add(1)
			n.gmu.Lock()
			if old, ok := n.fleet[name]; ok && old.Reachable {
				old.Reachable = false
				n.fleet[name] = old
			}
			n.gmu.Unlock()
			continue
		}
		row.fetchedAt = time.Now()
		row.Reachable = true
		n.gmu.Lock()
		n.fleet[name] = row
		n.gmu.Unlock()
	}
}

func (n *Node) gossipLoop() {
	defer n.bg.Done()
	tick := time.NewTicker(n.cfg.GossipInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.GossipInterval)
			n.GossipOnce(ctx)
			cancel()
		}
	}
}

func (n *Node) fetchPeerStats(ctx context.Context, peer string) (NodeStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.peerURL(peer)+"/peer/stats", nil)
	if err != nil {
		return NodeStats{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return NodeStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeStats{}, fmt.Errorf("cluster: peer %s stats status %d", peer, resp.StatusCode)
	}
	var row NodeStats
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&row); err != nil {
		return NodeStats{}, err
	}
	return row, nil
}

// handlePeerStats serves this node's row to gossiping peers.
func (n *Node) handlePeerStats(w http.ResponseWriter, r *http.Request) {
	codeserver.WriteJSON(w, http.StatusOK, n.localRow(n.srv.Stats()))
}

// handleStats serves the fleet view: the local snapshot plus the last
// gossiped row of every peer. One cut serves both local and this node's
// own row, so the two never disagree within a response.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	local := n.srv.Stats()
	codeserver.WriteJSON(w, http.StatusOK, FleetStats{
		Node:         n.cfg.Self,
		Ring:         RingInfo{Nodes: n.ring.Nodes(), VNodes: n.ring.VNodes()},
		Local:        local,
		Fleet:        n.FleetView(local),
		GossipErrors: n.gossipErrors.Load(),
	})
}
