package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// corruptPeerFixture is a victim node whose ring partner is a hostile
// httptest server: it answers peer unit fetches and forwarded compiles
// with whatever bytes the test plants. The guest program is chosen so its
// key is owned by the hostile peer, forcing the victim onto the peer-fill
// path.
type corruptPeerFixture struct {
	victim   *Node
	srv      *codeserver.Server
	cacheDir string
	files    map[string]string
	key      codeserver.Key
	good     []byte // the owner's true encoding
	serve    func() []byte
}

func newCorruptPeerFixture(t *testing.T) *corruptPeerFixture {
	t.Helper()
	// A scratch single-node server produces the genuine unit bytes.
	scratch, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}

	fx := &corruptPeerFixture{cacheDir: t.TempDir()}
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/peer/unit/") && r.URL.Path != "/peer/compile" {
			http.NotFound(w, r)
			return
		}
		data := fx.serve()
		_, _ = w.Write(data)
	}))
	t.Cleanup(evil.Close)

	srv, err := codeserver.New(codeserver.Config{NodeName: "self", CacheDir: fx.cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewNode(srv, Config{
		Self:  "self",
		Peers: map[string]string{"self": "", "evil": evil.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victim.Close)
	fx.victim, fx.srv = victim, srv

	// Find a guest whose key lands on the hostile peer.
	for i := 0; ; i++ {
		if i > 256 {
			t.Fatal("no program hashed onto the hostile peer")
		}
		files := fleetProgram(i)
		k := codeserver.KeyFor(files, codeserver.Options{})
		if victim.Ring().Owner(k.String()) != "evil" {
			continue
		}
		u, _, err := scratch.CompileUnit(context.Background(), files, codeserver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fx.files, fx.key, fx.good = files, k, u.Wire
		return fx
	}
}

// fill drives the victim's peer-fill path for the fixture key and
// returns the admission error (nil when the peer bytes were accepted).
func (fx *corruptPeerFixture) fill(t *testing.T) error {
	t.Helper()
	_, err := fx.victim.srv.RunUnit(context.Background(), fx.key, 1_000_000)
	return err
}

// assertNotAdmitted checks the security property: rejected peer bytes
// are visible nowhere — not in memory, not on disk.
func (fx *corruptPeerFixture) assertNotAdmitted(t *testing.T) {
	t.Helper()
	if _, ok := fx.srv.Unit(context.Background(), fx.key); ok {
		t.Fatal("rejected peer unit is resident in the memory tier")
	}
	if _, err := os.Stat(fmt.Sprintf("%s/%s.tsa", fx.cacheDir, fx.key)); err == nil {
		t.Fatal("rejected peer unit was persisted to the disk tier")
	}
}

// TestPeerFillRejectsTruncatedUnit: a peer shipping a truncated .tsa is
// caught by local re-verification; the bytes never land in any tier and
// the reject counter records the event.
func TestPeerFillRejectsTruncatedUnit(t *testing.T) {
	fx := newCorruptPeerFixture(t)
	fx.serve = func() []byte { return fx.good[:len(fx.good)-7] }

	err := fx.fill(t)
	if err == nil {
		t.Fatal("truncated peer unit was admitted")
	}
	if driver.KindOf(err) != driver.KindVerify {
		t.Errorf("truncated unit rejected with kind %v, want verify: %v", driver.KindOf(err), err)
	}
	fx.assertNotAdmitted(t)
	st := fx.srv.Stats()
	if st.PeerFillRejects != 1 {
		t.Errorf("peer_fill_rejects = %d, want 1", st.PeerFillRejects)
	}
	if st.PeerFills != 0 {
		t.Errorf("peer_fills = %d after a rejected fill, want 0", st.PeerFills)
	}

	// Honesty restored: the same key fills fine once the peer serves the
	// true bytes — the reject did not poison the fill slot.
	fx.serve = func() []byte { return fx.good }
	res, err := fx.victim.srv.RunUnit(context.Background(), fx.key, 1_000_000)
	if err != nil || !res.OK {
		t.Fatalf("honest retry failed: %+v err %v", res, err)
	}
	if got := fx.srv.Stats().PeerFills; got != 1 {
		t.Errorf("peer_fills after honest retry = %d, want 1", got)
	}
}

// TestPeerFillRejectsBitFlippedUnit: same property for silent
// corruption — a single flipped byte that breaks decode+verify is
// rejected at admission, counted, and cached nowhere.
func TestPeerFillRejectsBitFlippedUnit(t *testing.T) {
	fx := newCorruptPeerFixture(t)

	// Find a byte whose flip provably breaks local verification (some
	// payload bytes — e.g. inside string constants — survive a flip with
	// type safety intact; those are by design admissible).
	flipped := -1
	for i := 0; i < len(fx.good); i++ {
		mut := append([]byte(nil), fx.good...)
		mut[i] ^= 0x40
		if _, err := wire.DecodeVerified(mut); err != nil {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no byte flip breaks verification — fixture unit too forgiving")
	}
	fx.serve = func() []byte {
		mut := append([]byte(nil), fx.good...)
		mut[flipped] ^= 0x40
		return mut
	}

	if err := fx.fill(t); err == nil {
		t.Fatal("bit-flipped peer unit was admitted")
	}
	fx.assertNotAdmitted(t)
	if got := fx.srv.Stats().PeerFillRejects; got != 1 {
		t.Errorf("peer_fill_rejects = %d, want 1", got)
	}
}

// TestPeerFillUnreachableOwner: with no live owner the miss surfaces as
// a fill error (counted as an error, not a reject) and the public unit
// endpoint reports a 5xx rather than fabricating a 404.
func TestPeerFillUnreachableOwner(t *testing.T) {
	srv, err := codeserver.New(codeserver.Config{NodeName: "self"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewNode(srv, Config{
		Self:  "self",
		Peers: map[string]string{"self": "", "gone": "http://127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victim.Close)

	for i := 0; i < 256; i++ {
		k := codeserver.KeyFor(fleetProgram(i), codeserver.Options{})
		if victim.Ring().Owner(k.String()) != "gone" {
			continue
		}
		_, err := srv.RunUnit(context.Background(), k, 1_000_000)
		if err == nil {
			t.Fatal("run against a dead owner succeeded")
		}
		if errors.Is(err, codeserver.ErrUnitNotFound) {
			t.Fatalf("dead owner surfaced as not-found: %v", err)
		}
		if got := srv.Stats().PeerFillErrors; got != 1 {
			t.Errorf("peer_fill_errors = %d, want 1", got)
		}
		return
	}
	t.Fatal("no program hashed onto the dead peer")
}
