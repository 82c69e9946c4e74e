// Command safetsad is the mobile-code distribution daemon: it serves the
// codeserver HTTP API, compiling TJ source sets into content-addressed
// SafeTSA distribution units (compiled once per key, cached in memory and
// optionally on disk, one <hash>.tsa file per unit) and executing them in
// isolated interpreter sessions.
//
//	safetsad [-addr :8743] [-cachedir DIR] [-workers N]
//	         [-units N] [-modules N] [-maxsteps N] [-maxallocs N]
//	         [-run-timeout D] [-tenant-inflight N] [-pool-units N]
//	         [-stagetimeout D] [-traces N] [-debug-addr ADDR]
//	         [-module-opt] [-wire-version 2|1] [-drain D]
//	         [-node NAME -peers NAME=URL,... [-vnodes N] [-gossip D]]
//
// API:
//
//	POST /compile       {"files": {"Main.tj": "..."}, "optimize": true}
//	GET  /unit/{hash}   download the encoded distribution unit
//	POST /run/{hash}    {"max_steps": 1000000, "max_allocs": 1048576,
//	                     "tenant": "acme"}
//	POST /run-stream    raw wire unit in the body; the guest starts once the
//	                    tables are in, the session reading the body as
//	                    far as the functions it calls, each decoded,
//	                    verified and lowered as it arrives
//	                    (?max_steps=N&max_allocs=N)
//	GET  /stats         cache and latency metrics (JSON)
//	GET  /metrics       Prometheus text format (per-stage latency histograms)
//	GET  /debug/traces  recent request traces (JSON ring buffer)
//
// There is no engine to choose: /run executes the compiled form of the
// unit, each function lowered when a guest first calls it, and
// /run-stream the same lowered code, each function lowered as the stream
// brings it. An "engine" field in a run body is ignored.
//
// Every run is budgeted unless the operator says otherwise: -maxsteps
// (default 50 000 000) and -maxallocs (default 64<<20, the budget the
// command-line tools run guests under) cap the per-run step and allocation
// budgets — a request may ask for less, an ask above a cap folds down to
// it — and -run-timeout (default 10s) bounds wall clock. An explicit 0
// lifts that one bound. A run the host ends says why in its answer
// ("kill") and in safetsa_guest_kills_total{reason,tenant}:
//
//	step_limit   -maxsteps exhausted
//	alloc_limit  -maxallocs exhausted: one unit per field slot and array
//	             element (24 host bytes), per string byte and per byte
//	             printed — output has no budget of its own
//	depth_limit  more than 2^20 stack slots live (registers + 16 + 5 x body
//	             nesting per activation): a constant with no flag, what
//	             keeps guest recursion off the end of the Go stack
//	deadline     -run-timeout expired
//	interrupt    the client went away or the daemon is draining
//
// Units are encoded in the adaptive v2 wire format; -wire-version 1 asks
// for the fixed-code v1 format instead. The version is part of a unit's
// content key, so a fleet's members must agree on it.
//
// -tenant-inflight bounds each tenant's concurrent
// runs (default unlimited) — beyond it the server answers 429 with
// Retry-After: 1. Tenant identity comes from the request body or the
// X-Safetsa-Tenant header (default "anon"). -pool-units bounds the
// warm-session pool of post-static-init snapshots that serves repeat
// runs of a unit without replaying its initializers: at most that many
// loaded units hold a snapshot at once (negative = disabled). A snapshot
// lives in its loaded unit and goes with it, so -modules bounds the
// units kept alive.
//
// Cluster mode (-node plus -peers) turns the daemon into one member of a
// consistent-hash sharded fleet: compiles route to each unit's ring
// owner, store misses fill from that owner (bytes only, admitted locally
// before caching — a peer is trusted for which program a hash names, never
// for its safety), and GET /stats reports a gossiped fleet view. The /peer/*
// routes are the fleet-internal API; all of them answer requests, none
// accepts a unit.
//
// On SIGTERM/SIGINT the daemon drains: it stops accepting connections,
// interrupts in-flight guest runs (each still receives its complete HTTP
// response, with the output produced before the interrupt), and exits
// once no runs remain in flight or the -drain deadline expires.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ on that address only — profiling stays off the public
// port, so exposing the API does not expose the profiler.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"safetsa/internal/cluster"
	"safetsa/internal/codeserver"
)

func main() {
	addr := flag.String("addr", ":8743", "listen address")
	cacheDir := flag.String("cachedir", "", "on-disk unit store (empty = memory only)")
	workers := flag.Int("workers", 0, "concurrent producer pipelines (0 = GOMAXPROCS)")
	units := flag.Int("units", 1024, "max encoded units cached in memory")
	modules := flag.Int("modules", 256, "max decoded modules cached")
	maxSteps := flag.Int64("maxsteps", codeserver.DefaultMaxSteps, "hard per-run step budget (0 = unlimited)")
	maxAllocs := flag.Int64("maxallocs", codeserver.DefaultMaxAllocs, "hard per-run allocation budget, in rt.Env.MaxAlloc units (0 = unlimited)")
	runTimeout := flag.Duration("run-timeout", codeserver.DefaultRunTimeout, "wall-clock deadline per guest run (0 = none)")
	tenantInFlight := flag.Int("tenant-inflight", 0, "max concurrent runs per tenant, 429 beyond (0 = unlimited)")
	poolUnits := flag.Int("pool-units", 0, "loaded units that may hold a warm-session snapshot at once (0 = default 256, negative = disabled); -modules bounds the units kept alive")
	stageTimeout := flag.Duration("stagetimeout", 30*time.Second, "per-stage compile timeout (0 = none)")
	traces := flag.Int("traces", 64, "request traces retained for /debug/traces")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	moduleOpt := flag.Bool("module-opt", false,
		"upgrade optimizing compiles to the interprocedural tier (devirtualization, inlining)")
	wireVersion := flag.Int("wire-version", 2,
		"wire format for newly encoded units: 2 adaptive, 1 fixed-code (0 = 1); part of the cache key")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight runs on shutdown")

	node := flag.String("node", "", "fleet member name (enables cluster mode with -peers)")
	peers := flag.String("peers", "",
		"comma-separated fleet membership as NAME=URL pairs, including this node (its URL may be omitted)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per fleet member on the placement ring (0 = default)")
	gossip := flag.Duration("gossip", 5*time.Second, "fleet stats gossip interval (0 = disabled)")
	flag.Parse()

	srv, err := codeserver.New(codeserver.Config{
		CacheDir:          *cacheDir,
		Workers:           *workers,
		StageTimeout:      *stageTimeout,
		MaxUnits:          *units,
		MaxModules:        *modules,
		MaxSteps:          *maxSteps,
		MaxAllocs:         *maxAllocs,
		RunTimeout:        *runTimeout,
		TenantMaxInFlight: *tenantInFlight,
		PoolUnits:         *poolUnits,
		Traces:            *traces,
		ModuleOpt:         *moduleOpt,
		WireVersion:       *wireVersion,
		NodeName:          *node,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "safetsad:", err)
		os.Exit(1)
	}

	handler := srv.Handler()
	var member *cluster.Node
	if *node != "" || *peers != "" {
		peerMap, err := parsePeers(*peers, *node)
		if err != nil {
			fmt.Fprintln(os.Stderr, "safetsad:", err)
			os.Exit(1)
		}
		member, err = cluster.NewNode(srv, cluster.Config{
			Self:           *node,
			Peers:          peerMap,
			VNodes:         *vnodes,
			GossipInterval: *gossip,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "safetsad:", err)
			os.Exit(1)
		}
		member.Start()
		handler = member.Handler()
		log.Printf("safetsad: cluster mode: node %s in fleet %v", *node, member.Ring().Nodes())
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		ds := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("safetsad: pprof on %s/debug/pprof/", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("safetsad: debug listener: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ds.Shutdown(shCtx)
		}()
	}

	// Graceful drain: interrupt in-flight guest runs (they finish their
	// HTTP exchanges with the output produced so far) while the listener
	// stops accepting; both drains share the -drain deadline.
	go func() {
		<-ctx.Done()
		log.Printf("safetsad: draining (deadline %v)", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("safetsad: run drain: %v", err)
		}
		if member != nil {
			member.Close()
		}
		_ = hs.Shutdown(shCtx)
	}()

	log.Printf("safetsad: serving on %s (cachedir=%q)", *addr, *cacheDir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "safetsad:", err)
		os.Exit(1)
	}
}

// parsePeers turns "a=http://h1,b=http://h2,c=http://h3" into the fleet
// membership map. The self entry may omit its URL ("a=" or just "a") —
// a node never dials itself.
func parsePeers(spec, self string) (map[string]string, error) {
	if self == "" {
		return nil, errors.New("cluster mode needs -node")
	}
	if spec == "" {
		return nil, errors.New("cluster mode needs -peers")
	}
	peers := make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, _ := strings.Cut(entry, "=")
		if name == "" {
			return nil, fmt.Errorf("bad -peers entry %q", entry)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate -peers entry %q", name)
		}
		if url == "" && name != self {
			return nil, fmt.Errorf("-peers entry %q needs a URL", name)
		}
		peers[name] = strings.TrimSuffix(url, "/")
	}
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("-peers must include this node (%q)", self)
	}
	return peers, nil
}

// debugMux wires the pprof handlers onto an explicit mux instead of
// importing net/http/pprof for its DefaultServeMux side effect — the
// daemon never serves DefaultServeMux, so the explicit wiring is the
// only way the profiler becomes reachable.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
