package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"safetsa/internal/codeserver"
)

// Config wires one codeserver into a fleet.
type Config struct {
	// Self is this node's name. It must be a key of Peers.
	Self string
	// Peers is the full static membership: node name → HTTP base URL
	// (scheme://host:port, no trailing slash), including Self. Every
	// member must be configured with the same name set so the rings
	// agree.
	Peers map[string]string
	// VNodes is the virtual-node count per member (<=0: DefaultVNodes).
	VNodes int
	// Client performs peer requests (nil: 15s-timeout default client).
	Client *http.Client
	// GossipInterval is how often the background loop refreshes peer
	// stats for the fleet view (<=0: background gossip disabled; the
	// fleet view then only covers what GossipOnce was asked to fetch).
	GossipInterval time.Duration
}

// Node is one fleet member: it routes public traffic by ring ownership,
// serves the internal peer API, and keeps the gossiped fleet view. It
// also implements codeserver.PeerFiller, which the wrapped server calls
// on a store miss along the run and unit-download paths.
type Node struct {
	cfg    Config
	srv    *codeserver.Server
	ring   *Ring
	client *http.Client

	// Cluster-level counters (the per-request store/admission counters
	// live in codeserver.Metrics; these cover what only the cluster
	// layer sees).
	forwards     atomic.Uint64 // compiles forwarded to their owner
	gossipErrors atomic.Uint64

	gmu   sync.Mutex
	fleet map[string]NodeStats // last gossiped stats per peer

	stop     chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup
}

// NewNode wraps srv as fleet member cfg.Self and installs itself as the
// server's peer filler. Call Start to begin background gossip and Close
// on shutdown.
func NewNode(srv *codeserver.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: node name required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q missing from peer list", cfg.Self)
	}
	names := make([]string, 0, len(cfg.Peers))
	for name, url := range cfg.Peers {
		if url == "" && name != cfg.Self {
			return nil, fmt.Errorf("cluster: peer %q has no URL", name)
		}
		names = append(names, name)
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	n := &Node{
		cfg:    cfg,
		srv:    srv,
		ring:   ring,
		client: client,
		fleet:  make(map[string]NodeStats),
		stop:   make(chan struct{}),
	}
	srv.SetPeerFiller(n)
	return n, nil
}

// Ring exposes the placement ring (read-only; all members agree on it).
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's fleet name.
func (n *Node) Self() string { return n.cfg.Self }

// Start launches the background gossip loop when configured.
func (n *Node) Start() {
	if n.cfg.GossipInterval > 0 {
		n.bg.Add(1)
		go n.gossipLoop()
	}
}

// Close stops background work. It does not shut the wrapped server
// down; drain that separately via codeserver.Server.Shutdown.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.bg.Wait()
}

// Handler returns the fleet-aware HTTP API: the public routes that need
// ring routing, the internal peer API, and a fall-through to the
// wrapped server (which itself peer-fills store misses on the run and
// unit-download paths via the PeerFiller hook).
//
//	POST /compile           ring-routed compile (owner compiles once)
//	GET  /stats             fleet view (local stats + gossiped peers)
//	GET  /peer/unit/{hash}  encoded unit bytes for peers (no recursion)
//	POST /peer/compile      owner-side compile on behalf of a peer
//	GET  /peer/stats        this node's stats row for gossip
//
// No peer route accepts a write: a unit enters this node's store only
// because this node asked for it (see codeserver.Store).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", n.srv.CompileHandler(n.compile, codeserver.WriteCompileResponse))
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /peer/unit/{hash}", n.handlePeerUnit)
	mux.HandleFunc("POST /peer/compile", n.srv.CompileHandler(n.srv.CompileSources, writePeerCompile))
	mux.HandleFunc("GET /peer/stats", n.handlePeerStats)
	mux.Handle("/", n.srv.Handler())
	return mux
}

// Compile is the fleet's compile step for a source set given as a file
// map; see compile.
func (n *Node) Compile(ctx context.Context, files map[string]string, opts codeserver.Options) (*codeserver.Unit, bool, error) {
	// Route on the key the owner will mint: every member resolves the
	// options the same way (the fleet shares one server configuration),
	// so a unit has one hash and one owner whichever node was asked.
	opts = n.srv.ResolveOptions(opts)
	src := codeserver.SourcesOf(files)
	return n.compile(ctx, src.Key(opts), src, opts)
}

// compile routes a compile request by content key (a
// codeserver.CompileFunc): the ring owner runs the producer pipeline
// (under its local singleflight, so a hot new unit compiles exactly once
// fleet-wide); every other node serves its local store or coalesces
// callers onto one forwarded compile whose result bytes are re-admitted
// locally before caching.
func (n *Node) compile(ctx context.Context, k codeserver.Key, src codeserver.SourceSet, opts codeserver.Options) (*codeserver.Unit, bool, error) {
	owner := n.ring.Owner(k.String())
	if owner == n.cfg.Self {
		return n.srv.CompileSources(ctx, k, src, opts)
	}
	return n.srv.PeerFillUnit(ctx, k, func(ctx context.Context) ([]byte, error) {
		n.forwards.Add(1)
		return n.forwardCompile(ctx, owner, src, opts)
	})
}

// FetchUnit implements codeserver.PeerFiller: it resolves a local store
// miss by asking the key's owner for the encoded unit. When this node
// *is* the owner, there is no better-informed peer to ask, so the miss
// stands.
func (n *Node) FetchUnit(ctx context.Context, k codeserver.Key) ([]byte, error) {
	owner := n.ring.Owner(k.String())
	if owner == n.cfg.Self {
		return nil, codeserver.ErrUnitNotFound
	}
	return n.fetchUnitFrom(ctx, owner, k)
}
