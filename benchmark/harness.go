package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"safetsa/internal/codeserver"
)

// The deployment under test, fixed so that numbers from different
// commits describe the same service: the full current pipeline (compile
// requests ask for the interprocedural tier, units travel as wire v2),
// the server's default engine (requests name none), and the memory
// store only, because a sandbox's disk is not a real disk.
const (
	guestMaxSteps  = 50_000_000
	guestMaxAllocs = 64 << 20
	numTenants     = 4
	numClients     = 2
)

func baseConfig() codeserver.Config {
	return codeserver.Config{
		WireVersion:       2,
		MaxSteps:          guestMaxSteps,
		MaxAllocs:         guestMaxAllocs,
		RunTimeout:        10 * time.Second,
		TenantMaxInFlight: 4,
	}
}

// harness hosts one codeserver.Server on a loopback listener inside the
// benchmark process and talks to it over real HTTP.
type harness struct {
	srv    *codeserver.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	runBody [numTenants][]byte
}

func startHarness(cfg codeserver.Config) (*harness, error) {
	srv, err := codeserver.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        2 * numClients,
				MaxIdleConnsPerHost: 2 * numClients,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		},
	}
	for t := range h.runBody {
		h.runBody[t], err = json.Marshal(codeserver.RunRequest{
			MaxSteps: guestMaxSteps, MaxAllocs: guestMaxAllocs, Tenant: tenantName(t)})
		if err != nil {
			return nil, err
		}
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the listener and the server down and waits for the serving
// goroutine to return.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.client.CloseIdleConnections()
	return errors.Join(err, h.srv.Shutdown(ctx))
}

func tenantName(t int) string { return "tenant-" + strconv.Itoa(t) }

// request is one prepared HTTP exchange; building it is the
// benchmark's cost, not the server's, so it happens before the clock
// starts.
type request struct {
	method string
	url    string
	body   []byte
	tenant string // sent as a header when the body cannot carry it
}

// do performs the exchange and returns the status, the whole response
// body, and the client-observed latency from send to last byte.
func (h *harness) do(rq request) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(rq.method, rq.url, bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if rq.tenant != "" {
		req.Header.Set(codeserver.TenantHeader, rq.tenant)
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, lat, err
}

func (h *harness) compileRequest(files map[string]string) (request, error) {
	body, err := json.Marshal(codeserver.CompileRequest{Files: files, ModuleOpt: true})
	return request{method: http.MethodPost, url: h.base + "/compile", body: body}, err
}

func (h *harness) runRequest(p *program, tenant int) request {
	return request{method: http.MethodPost, url: h.base + "/run/" + p.hash, body: h.runBody[tenant]}
}

func (h *harness) streamRequest(p *program, tenant int) request {
	return request{
		method: http.MethodPost,
		url: fmt.Sprintf("%s/run-stream?max_steps=%d&max_allocs=%d",
			h.base, guestMaxSteps, guestMaxAllocs),
		body:   p.wire,
		tenant: tenantName(tenant),
	}
}

// stats reads GET /stats: the server's own counters and stage sums,
// seen from outside like any other client would.
func (h *harness) stats() (codeserver.Stats, error) {
	var st codeserver.Stats
	status, data, _, err := h.do(request{method: http.MethodGet, url: h.base + "/stats"})
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	return st, json.Unmarshal(data, &st)
}

// fill compiles every program on the server at O2 / wire v2, records
// its content address and downloads its wire bytes. It returns the
// total size of the seed-independent units: the unit_bytes metric.
func (h *harness) fill(in *inputs) (int, error) {
	fixedBytes := 0
	for _, p := range in.all {
		rq, err := h.compileRequest(p.files)
		if err != nil {
			return 0, err
		}
		status, data, _, err := h.do(rq)
		if err != nil {
			return 0, err
		}
		var cr codeserver.CompileResponse
		if status != http.StatusOK || json.Unmarshal(data, &cr) != nil {
			return 0, fmt.Errorf("compile %s: status %d: %s", p.name, status, data)
		}
		p.hash = cr.Hash
		if p.key, err = codeserver.ParseKey(cr.Hash); err != nil {
			return 0, err
		}
		status, p.wire, _, err = h.do(request{method: http.MethodGet, url: h.base + "/unit/" + p.hash})
		if err != nil || status != http.StatusOK || len(p.wire) != cr.Size {
			return 0, fmt.Errorf("download %s: status %d, %d of %d bytes: %v", p.name, status, len(p.wire), cr.Size, err)
		}
		if p.fixed {
			fixedBytes += cr.Size
		}
	}
	return fixedBytes, nil
}
