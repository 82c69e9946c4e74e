package wire_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/oracle"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// decodeStreamAll runs a full streaming decode over in-memory bytes and
// returns the unit (with Wait already settled) or the stream error.
func decodeStreamAll(data []byte) (*wire.StreamingUnit, error) {
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	if err != nil {
		return nil, err
	}
	if err := su.Wait(); err != nil {
		return nil, err
	}
	return su, nil
}

// boundaries pulls a clean stream one function at a time and returns the
// byte offset just past each: the cut points of the partial-delivery
// tests.
func boundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	if err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	bs := make([]int64, su.NumFuncs())
	for j := range bs {
		if err := su.WaitFunc(j); err != nil {
			t.Fatalf("clean stream rejected: %v", err)
		}
		bs[j] = su.Offset()
	}
	if err := su.Wait(); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	return bs
}

// TestStreamingMatchesFull: a streaming decode of every test program at
// both wire versions yields the same module as the one-shot decoder,
// and stands at a strictly later offset after each function.
func TestStreamingMatchesFull(t *testing.T) {
	for name, src := range testPrograms {
		t.Run(name, func(t *testing.T) {
			mod := compileAll(t, src, true)
			for _, tc := range []struct {
				label string
				data  []byte
			}{
				{"v1", wire.EncodeModule(mod)},
				{"v2", wire.EncodeModuleV2(mod, nil)},
			} {
				full, err := wire.DecodeVerified(tc.data)
				if err != nil {
					t.Fatalf("%s: full decode: %v", tc.label, err)
				}
				su, err := decodeStreamAll(tc.data)
				if err != nil {
					t.Fatalf("%s: streaming decode: %v", tc.label, err)
				}
				if su.Mod.Dump() != full.Dump() {
					t.Fatalf("%s: streaming and full decode disagree structurally", tc.label)
				}
				bs := boundaries(t, tc.data)
				if len(bs) != len(full.Funcs) {
					t.Fatalf("%s: %d boundaries for %d functions", tc.label, len(bs), len(full.Funcs))
				}
				for i := 1; i < len(bs); i++ {
					if bs[i] <= bs[i-1] {
						t.Fatalf("%s: boundaries not strictly increasing: %v", tc.label, bs)
					}
				}
			}
		})
	}
}

// TestStreamPartialDelivery is the partial-delivery battery over the
// corpus: every unit, both wire versions, truncated at every function
// boundary and at mid-varint cuts around each boundary, must be
// verify-rejected by the streaming decoder — constructor error or Wait
// error, never a nil Wait, never a panic.
func TestStreamPartialDelivery(t *testing.T) {
	units := corpus.Units()
	for _, u := range units {
		t.Run(u.Name, func(t *testing.T) {
			prog, err := driver.Frontend(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := driver.CompileTSA(prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				label string
				data  []byte
			}{
				{"v1", wire.EncodeModule(mod)},
				{"v2", wire.EncodeModuleV2(mod, nil)},
			} {
				cuts := map[int64]bool{0: true, 1: true, 3: true}
				for _, b := range boundaries(t, tc.data) {
					// The boundary itself plus mid-symbol cuts around it:
					// one byte short lands mid-production, one or two past
					// land inside the next function's first varints.
					for _, c := range []int64{b - 1, b, b + 1, b + 2} {
						if c >= 0 && c < int64(len(tc.data)) {
							cuts[c] = true
						}
					}
				}
				for cut := range cuts {
					if _, err := decodeStreamAll(tc.data[:cut]); err == nil {
						t.Fatalf("%s: truncation to %d/%d bytes was admitted", tc.label, cut, len(tc.data))
					}
				}
			}
		})
	}
}

// TestStreamTruncationSweep is the exhaustive version of the boundary
// cuts over one unit: every byte-level prefix must be rejected.
func TestStreamTruncationSweep(t *testing.T) {
	mod := compileAll(t, testPrograms["objects"], true)
	for _, tc := range []struct {
		label string
		data  []byte
	}{
		{"v1", wire.EncodeModule(mod)},
		{"v2", wire.EncodeModuleV2(mod, nil)},
	} {
		for cut := 0; cut < len(tc.data); cut++ {
			if _, err := decodeStreamAll(tc.data[:cut]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes was admitted", tc.label, cut, len(tc.data))
			}
		}
	}
}

// entryNeed is the highest function index main cannot begin without:
// the static initializers and the entry method's body.
func entryNeed(mod *core.Module) int {
	need := -1
	for _, si := range mod.StaticInit {
		need = max(need, int(si))
	}
	if e := mod.Entry; e >= 0 {
		need = max(need, int(mod.Methods[e].FuncIdx))
	}
	return need
}

// TestStreamSlowReader proves the streaming claim end to end: with the
// tail of the stream withheld, the entry function is admitted and
// executes to completion — first-instruction execution strictly before
// the final byte arrives — and releasing the tail then completes
// admission of the whole unit.
func TestStreamSlowReader(t *testing.T) {
	// Helper methods after Main keep functions beyond the entry prefix
	// on the wire; main never calls them, so execution needs only the
	// prefix.
	src := `
class Helper {
    int spareOne(int x) { return x * 3 + 1; }
    int spareTwo(int x) { return x - 7; }
    int spareThree(int x) { return x * x; }
}
class Main {
    static void main() { System.out.println(6 * 7); }
}`
	mod := compileAll(t, src, false)
	data := wire.EncodeModuleV2(mod, nil)

	// A reference pass over the complete stream pins the prefix length:
	// every function up to and including the entry's body (the module is
	// transmitted entry-first, see ssabuild's streaming order).
	ref, err := decodeStreamAll(data)
	if err != nil {
		t.Fatal(err)
	}
	need := entryNeed(ref.Mod)
	if need < 0 || need >= ref.NumFuncs()-1 {
		t.Fatalf("entry prefix (%d) is not a proper prefix of %d functions; the test proves nothing", need, ref.NumFuncs())
	}
	prefix := boundaries(t, data)[need]

	pr, pw := io.Pipe()
	release := make(chan struct{})
	go func() {
		if _, err := pw.Write(data[:prefix]); err != nil {
			t.Error(err)
		}
		<-release
		_, _ = pw.Write(data[prefix:])
		pw.Close()
	}()

	su, err := wire.DecodeVerifiedStream(pr, wire.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := su.WaitEntry(); err != nil {
		t.Fatalf("entry prefix not admitted from partial stream: %v", err)
	}

	// Execute main while the tail is still withheld.
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: 1_000_000}
	l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunMain(); err != nil {
		t.Fatalf("run over partial stream: %v", err)
	}
	if got := out.String(); got != "42\n" {
		t.Fatalf("output %q, want %q", got, "42\n")
	}
	if r, n := su.Ready(), su.NumFuncs(); r >= n {
		t.Fatalf("all %d functions admitted before the tail was released — the slow reader did not hold anything back", n)
	}

	close(release)
	if err := su.Wait(); err != nil {
		t.Fatalf("released stream failed admission: %v", err)
	}
	if su.Mod.Dump() != ref.Mod.Dump() {
		t.Fatal("slow-reader decode disagrees with reference decode")
	}
}

// TestStreamMidStreamFailurePoisonsWait: a stream that turns bad after
// several functions were already admitted (and possibly executed) must
// still fail Wait — the admitted prefix never launders the unit into
// cacheability.
func TestStreamMidStreamFailurePoisonsWait(t *testing.T) {
	mod := compileAll(t, testPrograms["objects"], true)
	data := wire.EncodeModule(mod)
	bs := boundaries(t, data)
	if len(bs) < 2 {
		t.Skip("unit too small to corrupt mid-stream")
	}
	// Corrupt a byte inside the LAST function's span, after every
	// earlier function was admitted.
	mut := bytes.Clone(data)
	mut[bs[len(bs)-1]-2] ^= 0x55
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(mut), wire.DecodeOptions{})
	if err == nil {
		err = su.Wait()
	}
	if err == nil {
		// The flip may still decode to a well-formed unit (tamper
		// tolerance); only a *rejected* stream must poison Wait. Retry
		// with a guaranteed-bad mutation: hard truncation.
		if _, err := decodeStreamAll(data[:bs[len(bs)-1]-2]); err == nil {
			t.Fatal("mid-stream truncation after admitted prefix passed Wait")
		}
		return
	}
	// The failure is latched: asking again gets the same answer.
	// (WaitFunc may still answer nil for functions that were admitted
	// before the stream went bad — admission is a prefix property;
	// cacheability is Wait's alone.)
	if su != nil && su.Wait() == nil {
		t.Fatal("a second Wait reports nil on a poisoned stream")
	}
}

// TestStreamConsumersReadBesideTheCarver is the streaming half of "slabs
// do not alias": function j is handed to its consumer out of chunks the
// decoder goes on carving function j+1 from. The stream's one owner pulls
// a function at a time over a transport that delivers a byte at a time,
// and after each pull reads every function admitted so far end to end —
// so each is re-read after all its successors have been carved beside it.
// None may have changed: complete, every operand defined, equal to the
// whole-unit decode. Then a fresh stream is run through the WaitFunc gate
// and must print what the fully decoded unit prints.
func TestStreamConsumersReadBesideTheCarver(t *testing.T) {
	for _, name := range []string{"Scanner", "BigInteger"} {
		u, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("no corpus unit %s", name)
		}
		data := wire.EncodeModuleV2(corpusO2(t, u), nil)
		whole, err := wire.DecodeVerified(data)
		if err != nil {
			t.Fatal(err)
		}
		want := runMod(t, whole)

		su, err := wire.DecodeVerifiedStream(iotest.OneByteReader(bytes.NewReader(data)), wire.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < su.NumFuncs(); j++ {
			if err := su.WaitFunc(j); err != nil {
				t.Fatalf("%s: function %d: %v", name, j, err)
			}
			for k := 0; k <= j; k++ {
				f, ref := su.Mod.Funcs[k], whole.Funcs[k]
				if f.NumInstrs() != ref.NumInstrs() || f.NumValues() != ref.NumValues() {
					t.Fatalf("%s: function %d incomplete once %d was carved", name, k, j)
				}
				for _, b := range f.Blocks {
					b.Instrs(func(in *core.Instr) {
						for _, a := range in.Args {
							if f.Value(a) == nil {
								t.Fatalf("%s: function %d: operand v%d has no definition once %d was carved", name, k, a, j)
							}
						}
					})
				}
				if su.Mod.DumpFunc(f) != whole.DumpFunc(ref) {
					t.Fatalf("%s: function %d differs from the whole-unit decode once %d was carved", name, k, j)
				}
			}
		}
		if err := su.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		su, err = wire.DecodeVerifiedStream(iotest.OneByteReader(bytes.NewReader(data)), wire.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, &rt.Env{Out: &out, MaxSteps: 50_000_000})
		if err == nil {
			err = l.RunMain()
		}
		if err != nil {
			t.Fatalf("%s: streamed run: %v", name, err)
		}
		if err := su.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != want {
			t.Errorf("%s: streamed run printed %q, want %q", name, out.String(), want)
		}
	}
}

// countingReader counts the bytes it has handed out.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestStreamPullsNoFurtherThanAsked pins the pull contract over every
// corpus unit: the cursor reads when its consumer asks and stops where
// the answer ends. After WaitEntry exactly the entry prefix is admitted
// and the transport — a byte per Read, so byteSource's buffer hides
// nothing (over a faster one it may hold up to 4096 bytes more) — has
// given up exactly the bytes through that prefix's last function; Wait
// then takes the rest and leaves the module DecodeVerified builds.
func TestStreamPullsNoFurtherThanAsked(t *testing.T) {
	for _, u := range corpus.Units() {
		data := wire.EncodeModuleV2(corpusO2(t, u), nil)
		whole, err := wire.DecodeVerified(data)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		need := entryNeed(whole)
		if need < 0 || need >= len(whole.Funcs)-1 {
			t.Fatalf("%s: entry prefix (%d) is not a proper prefix of %d functions", u.Name, need, len(whole.Funcs))
		}
		end := boundaries(t, data)[need]

		src := &countingReader{r: bytes.NewReader(data)}
		su, err := wire.DecodeVerifiedStream(iotest.OneByteReader(src), wire.DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if su.Ready() != 0 {
			t.Errorf("%s: %d functions admitted before any was asked for", u.Name, su.Ready())
		}
		if err := su.WaitEntry(); err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if su.Ready() != need+1 {
			t.Errorf("%s: %d functions admitted after WaitEntry, want exactly %d", u.Name, su.Ready(), need+1)
		}
		if su.Offset() != end || src.n != end {
			t.Errorf("%s: after WaitEntry the decoder stands at byte %d and the transport has given up %d, want %d of %d for both",
				u.Name, su.Offset(), src.n, end, len(data))
		}
		if err := su.Wait(); err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if su.Ready() != len(whole.Funcs) || src.n != int64(len(data)) {
			t.Errorf("%s: after Wait %d/%d functions, %d/%d bytes", u.Name, su.Ready(), len(whole.Funcs), src.n, len(data))
		}
		if su.Mod.Dump() != whole.Dump() {
			t.Errorf("%s: pulled module differs from the whole-unit decode", u.Name)
		}
	}
}

// TestCursorRetiresAtTheLastBody: a cursor over a resident unit lives as
// long as the unit, so once it has admitted the last body it drops its
// decoder scratch and the v2 model, and not before; the closing check a
// stream still owes (Wait) works after that, and a cursor over memory
// (OpenVerified) admits the same module DecodeVerified does.
func TestCursorRetiresAtTheLastBody(t *testing.T) {
	for _, u := range corpus.Units() {
		mod := corpusO2(t, u)
		for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
			whole, err := wire.DecodeVerified(data)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Name, version, err)
			}
			su, err := wire.OpenVerified(data, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Name, version, err)
			}
			last := su.NumFuncs() - 1
			if err := su.WaitFunc(last - 1); err != nil || wire.Retired(su) {
				t.Fatalf("%s %s: before the last body: %v, retired %v", u.Name, version, err, wire.Retired(su))
			}
			if err := su.WaitFunc(last); err != nil || !wire.Retired(su) {
				t.Fatalf("%s %s: after the last body: %v, retired %v", u.Name, version, err, wire.Retired(su))
			}
			if err := su.Wait(); err != nil {
				t.Errorf("%s %s: Wait after retiring: %v", u.Name, version, err)
			}
			if su.Mod.Dump() != whole.Dump() {
				t.Errorf("%s %s: the cursor's module differs from the whole-unit decode", u.Name, version)
			}
			if _, err := decodeStreamAll(append(bytes.Clone(data), 0)); err == nil {
				t.Errorf("%s %s: trailing data accepted after the last body retired the decoder", u.Name, version)
			}
		}
	}
}

// TestLentStreamAdmitsEachBody: a stream cursor lent an arena — one
// arena, rewound between units, serving every corpus unit in turn —
// admits every body in order, each the body a whole-unit decode gives, and
// counts them. Damaged from the offset it stood at after a middle body
// k-1, it admits the k bodies before it, and after them only the bodies
// it decoded before the damage filled what the decoder holds: v1's bit
// reader decides from the byte in hand, so no body that reads a damaged
// byte; v2's range coder decides from a 32-bit code register, whose top
// byte is undamaged until a fourth damaged byte is read. Each body it
// admits is the whole decode's, and then it latches: it reports the
// rejection wherever it is asked and admits nothing more.
func TestLentStreamAdmitsEachBody(t *testing.T) {
	a := new(wire.Arena)
	for _, u := range corpus.Units() {
		mod := corpusO2(t, u)
		for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
			whole, err := wire.DecodeVerified(data)
			if err != nil {
				t.Fatal(err)
			}
			su, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(data), wire.DecodeOptions{}, a)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Name, version, err)
			}
			for j, f := range whole.Funcs {
				if err := su.WaitFunc(j); err != nil || su.Ready() != j+1 || su.Mod.DumpFunc(su.Mod.Funcs[j]) != whole.DumpFunc(f) {
					t.Fatalf("%s %s: body %d: %v, ready %d, or not the whole decode's %s", u.Name, version, j, err, su.Ready(), whole.FuncName(f))
				}
			}
			if err := su.Wait(); err != nil || su.Ready() != len(whole.Funcs) || su.Mod.NumInstrs() != whole.NumInstrs() {
				t.Fatalf("%s %s: %v; ready %d, %d instructions; want %d bodies, %d instructions",
					u.Name, version, err, su.Ready(), su.Mod.NumInstrs(), len(whole.Funcs), whole.NumInstrs())
			}
			a.Rewind()

			// Damage from the start of a middle body on: the bodies before
			// it, and those read from bytes already in hand, are admitted;
			// the rest are not.
			k := len(whole.Funcs) / 2
			bs := boundaries(t, data)
			hold := int64(1)
			if version == "v2" {
				hold = 4
			}
			want := k
			for want < len(bs) && bs[want] < bs[k-1]+hold {
				want++
			}
			bad := bytes.Clone(data)
			for i := bs[k-1]; i < int64(len(bad)); i++ {
				bad[i] ^= 0xff
			}
			su, err = wire.DecodeVerifiedStreamIn(bytes.NewReader(bad), wire.DecodeOptions{}, a)
			if err == nil {
				err = su.Wait()
			}
			if err == nil || su == nil {
				t.Fatalf("%s %s: a unit damaged from body %d on was admitted (%v)", u.Name, version, k, err)
			}
			ready := su.Ready()
			if ready != want {
				t.Fatalf("%s %s: damaged from body %d on, the cursor admitted %d, want %d", u.Name, version, k, ready, want)
			}
			for j := k; j < ready; j++ {
				if su.Mod.DumpFunc(su.Mod.Funcs[j]) != whole.DumpFunc(whole.Funcs[j]) {
					t.Fatalf("%s %s: damaged from body %d on, admitted body %d is not the whole decode's", u.Name, version, k, j)
				}
			}
			if got := su.WaitFunc(ready); got == nil || got.Error() != err.Error() || su.Wait() == nil || su.Ready() != ready {
				t.Fatalf("%s %s: after the rejection, WaitFunc said %v and Wait %v, ready %d; want %v", u.Name, version, got, su.Wait(), su.Ready(), err)
			}
			a.Rewind()
		}
	}
}

// TestClaimedIndexGrowsNothing: a head whose main's body never comes —
// the stream ends after the tables. The tables are admitted, so a session
// over a stream cursor lent an arena begins and its main waits for that
// body; the stream ends first. Nothing on the way is sized by the body
// the tables place: the session's form has a slot per body the gate
// admitted — none.
func TestClaimedIndexGrowsNothing(t *testing.T) {
	mod := compileAll(t, `class M { static void main() { } }`, true)
	head := wire.EncodeHead(mod)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	su, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(head), wire.DecodeOptions{}, new(wire.Arena))
	if err != nil {
		t.Fatalf("the %d-byte head was refused: %v", len(head), err)
	}
	l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err == nil {
		err = l.RunMain()
	}
	runtime.ReadMemStats(&after)
	if err == nil || su.Wait() == nil || su.Ready() != 0 {
		t.Fatalf("a head with no bodies ran: %v, wait %v, ready %d", err, su.Wait(), su.Ready())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a %d-byte head whose main's body never comes cost %d bytes", len(head), got)
	}
	t.Logf("%d-byte head", len(head))
}

// TestLentArenaDecodesWhatDecodeModuleDoes: a cursor over memory decodes
// into the arena it is lent, which the unit before it used and gave back
// (Arena.Rewind) — rewound, or poisoned and forgotten. Pulled body by body,
// every corpus unit in both wire versions must be the module DecodeModule
// gives: its canonical re-encoding is byte-identical, so nothing the
// earlier unit left in the chunks, the scratch, the model or the site maps
// reaches the later one. No corpus unit may leave its arena holding more
// than core.MaxUnitArenaBytes (-v logs the most one left).
func TestLentArenaDecodesWhatDecodeModuleDoes(t *testing.T) {
	t.Cleanup(func() { core.PoisonRecycled(false) })
	for _, poison := range []bool{false, true} {
		core.PoisonRecycled(poison)
		a, most := new(wire.Arena), 0
		for _, u := range corpus.Units() {
			mod := corpusO2(t, u)
			for _, version := range []string{"v1", "v2"} {
				encode := wire.EncodeModule
				if version == "v2" {
					encode = func(m *core.Module) []byte { return wire.EncodeModuleV2(m, nil) }
				}
				data := encode(mod)
				whole, err := wire.DecodeModule(data)
				if err != nil {
					t.Fatalf("%s %s: %v", u.Name, version, err)
				}
				su, err := wire.OpenVerified(data, a)
				if err != nil {
					t.Fatalf("%s %s poison %v: %v", u.Name, version, poison, err)
				}
				for j := range su.NumFuncs() {
					if err := su.WaitFunc(j); err != nil {
						t.Fatalf("%s %s poison %v: function %d: %v", u.Name, version, poison, j, err)
					}
				}
				if !bytes.Equal(encode(su.Mod), encode(whole)) {
					t.Errorf("%s %s poison %v: the module decoded into a rewound arena re-encodes differently",
						u.Name, version, poison)
				}
				held := a.Rewind()
				if held > core.MaxUnitArenaBytes {
					t.Fatalf("%s %s: a corpus unit left its arena holding %d B, over the cap", u.Name, version, held)
				}
				most = max(most, held)
			}
		}
		t.Logf("poison %v: a corpus unit left its arena holding at most %d B", poison, most)
	}
}

// TestUnclaimedFunctionIsMalformed: a body holds only its claim, and the
// body rule places as many bodies as the tables give roles, so a body
// past them has nothing to be decoded as. The encoder refuses to spell
// one; written anyway, after tables that are otherwise whole, it is bytes
// after the unit's final production, which every decoder entry refuses as
// malformed, with one text per wire version: the stream's gate opens for
// every body before it and never for it, and the schedules agree
// (oracle.CheckStreamingWire).
func TestUnclaimedFunctionIsMalformed(t *testing.T) {
	mod := compileAll(t, `
class Main {
    static int twice(int x) { return x + x; }
    static void main() { System.out.println(twice(3)); }
}`, false)
	bad := len(mod.Funcs)
	mod.Funcs = append(mod.Funcs, mod.Funcs[mod.Methods[mod.Entry].FuncIdx])
	for _, encode := range []func(*core.Module) []byte{
		wire.EncodeModule,
		func(m *core.Module) []byte { return wire.EncodeModuleV2(m, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the encoder spelled a body its tables do not claim")
				}
			}()
			encode(mod)
		}()
	}
	wants := map[string]string{
		"v1": "trailing data after the final production",
		"v2": "payload length does not match the final production",
	}
	entries := map[string]func([]byte) error{
		"DecodeModule":   func(b []byte) error { _, err := wire.DecodeModule(b); return err },
		"DecodeVerified": func(b []byte) error { _, err := wire.DecodeVerified(b); return err },
		"OpenVerified": func(b []byte) error {
			su, err := wire.OpenVerified(b, nil)
			if err == nil {
				err = su.Wait()
			}
			return err
		},
		"stream": func(b []byte) error {
			su, err := wire.DecodeVerifiedStream(bytes.NewReader(b), wire.DecodeOptions{})
			if err == nil {
				err = su.Wait()
			}
			return err
		},
	}
	for version, data := range wire.EncodeUnchecked(mod) {
		if err := oracle.CheckStreamingWire(data, oracle.Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}); err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		var text string
		want := wants[version]
		for entry, decode := range entries {
			err := decode(data)
			if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: got %v, want ErrMalformed refusing the unclaimed body (%q)", version, entry, err, want)
			} else if text == "" {
				text = err.Error()
			} else if err.Error() != text {
				t.Errorf("%s %s: worded %q, another entry %q", version, entry, err, text)
			}
		}
		su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: tables refused: %v", version, err)
		}
		if err := su.WaitFunc(bad - 1); err != nil {
			t.Errorf("%s: function %d, before the unclaimed one, was not admitted: %v", version, bad-1, err)
		}
		if err := su.WaitFunc(bad); err == nil || su.Ready() != bad {
			t.Errorf("%s: WaitFunc(%d) = %v with %d ready: the gate opened for the unclaimed body", version, bad, err, su.Ready())
		}
	}
}
