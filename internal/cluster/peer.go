package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"safetsa/internal/codeserver"
	"safetsa/internal/driver"
)

// ---- peer API: server side -------------------------------------------
//
// A peer answers with the unit's bytes and nothing beside them: what the
// asking node knows about a unit is what its own admission proves.

// handlePeerUnit serves the encoded bytes of a locally held unit to a
// peer. Deliberately store-only: a peer asking a non-owner must get 404
// rather than a recursive fill, so a misconfigured ring cannot create
// fetch cycles.
func (n *Node) handlePeerUnit(w http.ResponseWriter, r *http.Request) {
	k, ok := codeserver.PathKey(w, r)
	if !ok {
		return
	}
	u, ok := n.srv.Unit(r.Context(), k)
	if !ok {
		codeserver.WriteError(w, codeserver.ErrUnitNotFound)
		return
	}
	codeserver.WriteUnit(w, u)
}

// writePeerCompile answers POST /peer/compile, the owner-side compile on
// behalf of a non-owner node, with the unit's encoded bytes. The route is
// the public compile path with this answer (codeserver.CompileHandler
// over the server's own compile step: singleflight, metrics, traces), so a
// storm of forwarded requests for one new unit still compiles exactly
// once.
func writePeerCompile(w http.ResponseWriter, u *codeserver.Unit, _ codeserver.Options, _ bool) {
	codeserver.WriteUnit(w, u)
}

// ---- peer API: client side -------------------------------------------

// fetchUnitFrom pulls the encoded unit bytes for k from a named peer.
func (n *Node) fetchUnitFrom(ctx context.Context, peer string, k codeserver.Key) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		n.peerURL(peer)+"/peer/unit/"+k.String(), nil)
	if err != nil {
		return nil, err
	}
	return n.unitFrom(peer, req)
}

// forwardCompile asks the owner to compile a source set and returns the
// resulting encoded unit bytes. It runs inside a store miss, which is
// where a request's sources become a file map.
func (n *Node) forwardCompile(ctx context.Context, owner string, src codeserver.SourceSet, opts codeserver.Options) ([]byte, error) {
	body, err := json.Marshal(codeserver.CompileRequest{
		Files: src.Files(), Optimize: opts.Optimize, ModuleOpt: opts.ModuleOpt})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		n.peerURL(owner)+"/peer/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return n.unitFrom(owner, req)
}

// unitFrom sends req to a peer and reads the unit it answers with. It
// only moves bytes: the caller admits them locally (codeserver's peer
// fill) before anything is cached.
func (n *Node) unitFrom(peer string, req *http.Request) ([]byte, error) {
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s unreachable: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, peerError(peer, resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, codeserver.MaxUnitBytes+1))
	if err == nil && len(data) > codeserver.MaxUnitBytes {
		err = fmt.Errorf("unit exceeds %d bytes", codeserver.MaxUnitBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading unit from peer %s: %w", peer, err)
	}
	return data, nil
}

func (n *Node) peerURL(peer string) string { return n.cfg.Peers[peer] }

// peerError reconstructs a typed error from a peer's JSON error body so
// user-program faults (a parse error on a forwarded compile, say) keep
// their kind — and therefore their HTTP status — when re-reported by
// this node, instead of collapsing into 500s.
func peerError(peer string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er codeserver.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		return fmt.Errorf("cluster: peer %s returned status %d", peer, resp.StatusCode)
	}
	if er.Kind == "not_found" || resp.StatusCode == http.StatusNotFound {
		return codeserver.ErrUnitNotFound
	}
	kind := driver.KindInternal
	switch er.Kind {
	case "parse":
		kind = driver.KindParse
	case "sema":
		kind = driver.KindSema
	case "verify":
		kind = driver.KindVerify
	case "runtime":
		kind = driver.KindRuntime
	}
	return &driver.Error{Kind: kind, Err: fmt.Errorf("%s (via peer %s)", er.Error, peer)}
}
