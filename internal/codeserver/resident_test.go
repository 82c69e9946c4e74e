package codeserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/iotest"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// tailSrc is a unit whose last body on the wire is one its guest never
// calls, so the guest runs to its end before the cursor reads that body.
const tailSrc = `
class P {
    static int used(int n) { return n + 1; }
    static void main() { System.out.println(used(41)); }
    static int unused(int n) { return n * n - 1; }
}`

// tailUnit encodes tailSrc at wire v2 and returns the bytes, where the
// last body begins in them, and a copy damaged in that body so admission
// refuses it while everything before it decodes as in good. The range
// coder reads a few bytes ahead of the symbols it has decoded, so the
// damage is searched for from the unit's end back, and kept where the
// bodies before the last still decode.
func tailUnit(t *testing.T) (good []byte, last int, bad []byte) {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"P.tj": tailSrc})
	if err != nil {
		t.Fatal(err)
	}
	good = wire.EncodeModuleV2(mod, nil)
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(good), wire.DecodeOptions{})
	if err == nil {
		err = su.WaitFunc(su.NumFuncs() - 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	last = int(su.Offset())
	if err := su.WaitFunc(su.NumFuncs() - 1); err != nil || !named(su.Mod, su.Mod.Funcs[su.NumFuncs()-1], "unused") {
		t.Fatalf("the last body on the wire is not the one main never calls (%v)", err)
	}
	for i := len(good) - 1; i >= last-8; i-- {
		bad = bytes.Clone(good)
		bad[i] ^= 0x40
		if _, err := wire.DecodeVerified(bad); err == nil {
			continue
		}
		su, err := wire.DecodeVerifiedStream(bytes.NewReader(bad), wire.DecodeOptions{})
		if err == nil && su.WaitFunc(su.NumFuncs()-2) == nil {
			return good, last, bad
		}
	}
	t.Fatal("no byte flip in the last body breaks admission")
	return nil, 0, nil
}

func streamOf(t *testing.T, s *Server, body io.Reader) (RunStreamResult, error) {
	t.Helper()
	return s.RunUnitStream(context.Background(), body, RunOptions{MaxSteps: 1_000_000})
}

// mustStream streams data and fails the test unless it ran cleanly under
// its wire key.
func mustStream(t *testing.T, s *Server, data []byte) RunResult {
	t.Helper()
	res, err := streamOf(t, s, bytes.NewReader(data))
	if err != nil || !res.OK || res.Hash != KeyForWire(data).String() {
		t.Fatalf("stream: %+v, %v", res, err)
	}
	return res.RunResult
}

// mustReject streams body and fails the test unless the stream door
// refused it as a verify error, counted once.
func mustReject(t *testing.T, s *Server, body io.Reader, what string) {
	t.Helper()
	before := s.Stats().StreamRejects
	res, err := streamOf(t, s, body)
	if driver.KindOf(err) != driver.KindVerify || res.Hash != "" {
		t.Fatalf("%s: answered %+v, %v; want a verify error", what, res, err)
	}
	if got := s.Stats().StreamRejects - before; got != 1 {
		t.Fatalf("%s: stream_rejects moved by %d, want 1", what, got)
	}
}

// TestRestreamIsAdmittedOnce: the second stream of the same bytes gets the
// first one's answer and hash, and the store's record is its tail's
// verdict: the unit resident under the hash is the one the first stream
// published, untouched.
func TestRestreamIsAdmittedOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	good, _, _ := tailUnit(t)
	k := KeyForWire(good)

	first := mustStream(t, s, good)
	u, ok := s.store.resident(k)
	if st := s.Stats(); !ok || st.ResidentStreams != 0 || st.UnitsCached != 1 {
		t.Fatalf("after the first stream: resident %v, resident_streams %d, units %d", ok, st.ResidentStreams, st.UnitsCached)
	}
	if again := mustStream(t, s, good); again != first {
		t.Fatalf("the re-stream answered %+v, the first stream %+v", again, first)
	}
	if v, _ := s.store.resident(k); v != u {
		t.Error("the re-stream replaced the resident unit")
	}
	if st := s.Stats(); st.ResidentStreams != 1 || st.UnitsCached != 1 || st.StreamRejects != 0 || st.Runs != 2 {
		t.Errorf("after the re-stream: resident_streams %d, units %d, stream_rejects %d, runs %d; want 1, 1, 0, 2",
			st.ResidentStreams, st.UnitsCached, st.StreamRejects, st.Runs)
	}
}

// TestRestreamForgedEntry: a key proves nothing about bytes. A peer fill
// stores the owner's answer under the key it asked for, so the memory tier
// can hold other admissible bytes under the wire key of a stream that is
// damaged behind its guest. The stream is still refused, nothing of it is
// cached, and the forged entry is not vouched for.
func TestRestreamForgedEntry(t *testing.T) {
	good, _, bad := tailUnit(t)
	k := KeyForWire(bad)
	for name, other := range map[string][]byte{
		"the undamaged bytes": good, // one flipped byte away, same length
		"another program":     helloUnit(t).Wire,
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			if _, _, err := s.PeerFillUnit(context.Background(), k, func(context.Context) ([]byte, error) { return other, nil }); err != nil {
				t.Fatal(err)
			}
			mustReject(t, s, bytes.NewReader(bad), "a damaged stream under a forged key")
			if u, ok := s.store.resident(k); !ok || !bytes.Equal(u.Wire, other) {
				t.Error("the forged entry changed")
			}
			if st := s.Stats(); st.UnitsCached != 1 || st.ResidentStreams != 0 {
				t.Errorf("units %d, resident_streams %d; want 1, 0", st.UnitsCached, st.ResidentStreams)
			}
		})
	}
}

// TestRestreamDamagedOrPadded: the resident bytes streamed again with the
// last body flipped, cut inside it, or followed by garbage are refused as
// on a first stream, and the resident unit is left as it was.
func TestRestreamDamagedOrPadded(t *testing.T) {
	s := newTestServer(t, Config{})
	good, last, bad := tailUnit(t)
	k := KeyForWire(good)
	mustStream(t, s, good)
	u, _ := s.store.resident(k)
	for what, body := range map[string][]byte{
		"last body flipped":  bad,
		"last body cut":      good[: last+1 : last+1],
		"one byte short":     good[: len(good)-1 : len(good)-1],
		"trailing garbage":   append(bytes.Clone(good), 0x00, 0xAB),
		"one trailing zero":  append(bytes.Clone(good), 0x00),
		"the bytes, doubled": append(bytes.Clone(good), good...),
	} {
		mustReject(t, s, bytes.NewReader(body), what)
	}
	if v, ok := s.store.resident(k); !ok || v != u || !bytes.Equal(v.Wire, good) {
		t.Error("a refused re-stream touched the resident unit")
	}
	if st := s.Stats(); st.UnitsCached != 1 || st.ResidentStreams != 0 {
		t.Errorf("units %d, resident_streams %d; want 1, 0", st.UnitsCached, st.ResidentStreams)
	}
}

// TestRestreamClientDisconnect: a body that fails mid-tail is refused as
// on a first stream, whether or not its bytes are resident; the cursor
// resumes over what the door read and then meets the failure itself. A
// body that fails right after its last byte is answered as a first stream
// answers it, and not by the store: only a body read to its end is
// compared.
func TestRestreamClientDisconnect(t *testing.T) {
	good, last, _ := tailUnit(t)
	reset := errors.New("connection reset by peer")
	failing := func(n int) io.Reader {
		// One byte per read: the cursor holds no more than the guest asked
		// for when the door takes over.
		return iotest.OneByteReader(io.MultiReader(bytes.NewReader(good[:n]), iotest.ErrReader(reset)))
	}
	for _, resident := range []bool{false, true} {
		s := newTestServer(t, Config{})
		if resident {
			mustStream(t, s, good)
		}
		for _, n := range []int{last, last + 1, len(good) - 1} {
			mustReject(t, s, failing(n), "a body cut mid-tail by a reset")
		}
		if st := s.Stats(); st.ResidentStreams != 0 {
			t.Errorf("resident %v: resident_streams %d after the resets", resident, st.ResidentStreams)
		}
	}

	fresh, resident := newTestServer(t, Config{}), newTestServer(t, Config{})
	mustStream(t, resident, good)
	want, wantErr := streamOf(t, fresh, failing(len(good)))
	got, err := streamOf(t, resident, failing(len(good)))
	if got.RunResult != want.RunResult || got.Hash != want.Hash || (err == nil) != (wantErr == nil) {
		t.Errorf("a reset after the last byte: resident %+v, %v; first stream %+v, %v", got, err, want, wantErr)
	}
	if st := resident.Stats(); st.ResidentStreams != 0 {
		t.Errorf("a body that ended in a reset was vouched for by the store (resident_streams %d)", st.ResidentStreams)
	}
}

// TestRestreamOverBound: a body longer than MaxUnitBytes that begins with
// the resident bytes is refused as on a first stream. The door reads no
// further ahead of the cursor than one byte past the longest unit the store
// holds, so the cursor meets the first byte past the unit and the body is
// read no further than the cursor's one buffer beyond that.
func TestRestreamOverBound(t *testing.T) {
	s := newTestServer(t, Config{})
	good, _, _ := tailUnit(t)
	mustStream(t, s, good)
	body := &counted{r: io.MultiReader(bytes.NewReader(good), io.LimitReader(zeros{}, MaxUnitBytes+1))}
	mustReject(t, s, body, "a body over the bound")
	if body.n > int64(len(good))+1+4096 {
		t.Errorf("the door read %d bytes of a body whose first %d are the unit", body.n, len(good))
	}
	if st := s.Stats(); st.UnitsCached != 1 || st.ResidentStreams != 0 {
		t.Errorf("units %d, resident_streams %d; want 1, 0", st.UnitsCached, st.ResidentStreams)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// counted counts the bytes read through it.
type counted struct {
	r io.Reader
	n int64
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestRestreamRacesForget: sixteen clients re-stream one unit while
// another loop drops it from the store and publishes it again. Every
// answer is the unit's, under its hash, whether the store vouched for the
// tail or the cursor decoded it.
func TestRestreamRacesForget(t *testing.T) {
	s := newTestServer(t, Config{})
	good, _, _ := tailUnit(t)
	k := KeyForWire(good)
	want := mustStream(t, s, good)

	const clients, streams = 16, 20
	stop := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		defer func() { churned <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.store.forget(k)
			if _, _, _, err := s.store.fill(context.Background(), k, func(context.Context) (admitted, error) { return admit(good) }); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range streams {
				res, err := streamOf(t, s, bytes.NewReader(good))
				if err != nil || res.RunResult != want || res.Hash != k.String() {
					t.Errorf("a re-stream under churn answered %+v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	n := <-churned
	if n == 0 {
		t.Error("the churn loop never ran")
	}
	st := s.Stats()
	if st.StreamRejects != 0 || st.Runs != clients*streams+1 || st.ResidentStreams > clients*streams {
		t.Errorf("stream_rejects %d, runs %d, resident_streams %d", st.StreamRejects, st.Runs, st.ResidentStreams)
	}
	t.Logf("%d re-streams, %d vouched for by the store, across %d forget-and-publish rounds", clients*streams, st.ResidentStreams, n)
}
