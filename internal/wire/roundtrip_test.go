package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/oracle"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// testPrograms exercise every CST production and instruction kind through
// the wire format.
var testPrograms = map[string]string{
	"arith": `
class Main {
    static void main() {
        int a = 6; long b = 7L; double c = 0.5;
        System.out.println(a * 7);
        System.out.println(b * 6L);
        System.out.println(c * 84.0);
        System.out.println((char) 65);
        System.out.println(1 < 2 == true);
    }
}`,
	"control": `
class Main {
    static void main() {
        int s = 0;
        for (int i = 0; i < 10; i++) {
            if (i == 2) continue;
            if (i == 8) break;
            s += i;
        }
        int k = 3;
        do { s += k; k--; } while (k > 0);
        while (s > 30) { s -= 7; }
        System.out.println(s);
    }
}`,
	"objects": `
class A { int x; A(int v) { x = v; } int get() { return x; } }
class B extends A { B(int v) { super(v * 2); } int get() { return x + 1; } }
class Main {
    static void main() {
        A a = new B(10);
        System.out.println(a.get());
        System.out.println(a instanceof B);
        B b = (B) a;
        System.out.println(b.x);
    }
}`,
	"arrays": `
class Main {
    static void main() {
        double[][] m = new double[2][3];
        m[1][2] = 6.5;
        System.out.println(m[1][2]);
        System.out.println(m.length);
        System.out.println(m[0].length);
        int[] v = new int[4];
        for (int i = 0; i < v.length; i++) v[i] = i;
        System.out.println(v[3]);
    }
}`,
	"exceptions": `
class Main {
    static int f(int d) {
        try {
            int x = 10 / d;
            if (x > 3) throw new Exception("big " + x);
            return x;
        } catch (ArithmeticException e) {
            return -1;
        } catch (Exception e) {
            System.out.println(e.getMessage());
            return -2;
        } finally {
            System.out.println("fin");
        }
    }
    static void main() {
        System.out.println(f(5));
        System.out.println(f(0));
        System.out.println(f(1));
    }
}`,
	"statics": `
class Counter {
    static int n = 100;
    static int bump() { n += 5; return n; }
}
class Main {
    static void main() {
        System.out.println(Counter.bump());
        System.out.println(Counter.bump());
        System.out.println(Counter.n);
    }
}`,
	"strings": `
class Main {
    static void main() {
        String s = "safe" + "tsa" + 2001;
        System.out.println(s);
        System.out.println(s.substring(4, 7));
        System.out.println(s.length());
    }
}`,
}

func compileAll(t *testing.T, src string, optimize bool) *core.Module {
	t.Helper()
	files := map[string]string{"Main.tj": src}
	if optimize {
		mod, _, err := driver.CompileTSASourceOpt(files)
		if err != nil {
			t.Fatalf("compile -O: %v", err)
		}
		return mod
	}
	mod, err := driver.CompileTSASource(files)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

func runMod(t *testing.T, mod *core.Module) string {
	t.Helper()
	out, err := driver.RunModule(mod, 20_000_000)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for name, src := range testPrograms {
		for _, optimized := range []bool{false, true} {
			label := name
			if optimized {
				label += "-opt"
			}
			t.Run(label, func(t *testing.T) {
				mod := compileAll(t, src, optimized)
				want := runMod(t, mod)
				data := wire.EncodeModule(mod)
				dec, err := wire.DecodeModule(data)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if err := dec.Verify(core.VerifyOptions{}); err != nil {
					t.Fatalf("decoded module fails verification: %v", err)
				}
				got := runMod(t, dec)
				if got != want {
					t.Fatalf("decoded module diverges:\nwant %q\ngot  %q", want, got)
				}
				// The decoded module must re-encode to the identical
				// byte stream (canonical form).
				data2 := wire.EncodeModule(dec)
				if !bytes.Equal(data, data2) {
					t.Fatalf("re-encoding is not canonical: %d vs %d bytes", len(data), len(data2))
				}
				// The textual dumps must agree structurally.
				if mod.Dump() != dec.Dump() {
					t.Fatalf("dump mismatch after round trip")
				}
			})
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := wire.DecodeModule([]byte("not a module")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := wire.DecodeModule(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestDecodeTruncations: every byte-level prefix of a valid unit, of
// either wire version, is rejected cleanly by every entry point that
// decodes from memory — ErrMalformed, no panic, no partial module — and so
// is a v2 unit whose container declares its payload one byte short, or
// one byte long with a byte appended to make up the length.
func TestDecodeTruncations(t *testing.T) {
	mod := compileAll(t, testPrograms["objects"], true)
	v1, v2 := wire.EncodeModule(mod), wire.EncodeModuleV2(mod, nil)
	entries := []struct {
		name   string
		decode func([]byte) error
	}{
		{"DecodeModule", func(b []byte) error { _, err := wire.DecodeModule(b); return err }},
		{"DecodeVerified", func(b []byte) error { _, err := wire.DecodeVerified(b); return err }},
		{"OpenVerified", func(b []byte) error {
			su, err := wire.OpenVerified(b, nil)
			if err == nil {
				err = su.Wait()
			}
			return err
		}},
	}
	for _, e := range entries {
		for _, u := range []struct {
			version string
			data    []byte
		}{{"v1", v1}, {"v2", v2}} {
			for cut := 0; cut < len(u.data); cut++ {
				if err := e.decode(u.data[:cut]); !errors.Is(err, wire.ErrMalformed) {
					t.Fatalf("%s/%s: prefix of %d/%d bytes: got %v, want ErrMalformed", e.name, u.version, cut, len(u.data), err)
				}
			}
		}
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"payload declared one byte short", reframe(t, v2, -1, nil)},
			{"payload declared one byte long, a byte appended", reframe(t, v2, 1, []byte{0})},
		} {
			if err := e.decode(tc.data); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%s/v2: %s: got %v, want ErrMalformed", e.name, tc.name, err)
			}
		}
	}
}

// TestAdmissionAgreesOnTruncations runs admission's verdict oracle
// (oracle.CheckAdmission) over every prefix TestDecodeTruncations cuts,
// and the two misframed payloads: on each, the decoder that admits as it
// reads and the self-checking verifier reach the same verdict.
func TestAdmissionAgreesOnTruncations(t *testing.T) {
	mod := compileAll(t, testPrograms["objects"], true)
	v1, v2 := wire.EncodeModule(mod), wire.EncodeModuleV2(mod, nil)
	for _, data := range [][]byte{v1, v2} {
		for cut := 0; cut <= len(data); cut++ {
			if err := oracle.CheckAdmission(data[:cut]); err != nil {
				t.Fatalf("prefix of %d/%d bytes: %v", cut, len(data), err)
			}
		}
	}
	for _, data := range [][]byte{reframe(t, v2, -1, nil), reframe(t, v2, 1, []byte{0})} {
		if err := oracle.CheckAdmission(data); err != nil {
			t.Fatal(err)
		}
	}
}

// reframe returns a copy of the dictionary-free v2 unit data whose
// container declares the payload delta bytes longer than it is, with tail
// appended to the payload.
func reframe(t *testing.T, data []byte, delta int, tail []byte) []byte {
	t.Helper()
	const head = 6 // "STS2", the model byte and the model revision
	if len(data) < head || string(data[:4]) != "STS2" || data[4] != 0 || data[5] != wire.ModelAdaptive {
		t.Fatalf("not a dictionary-free v2 unit: % x", data[:min(len(data), head)])
	}
	plen, n := binary.Uvarint(data[head:])
	if n <= 0 {
		t.Fatal("bad payload length")
	}
	out := binary.AppendUvarint(append([]byte{}, data[:head]...), uint64(int(plen)+delta))
	return append(append(out, data[head+n:]...), tail...)
}

// TestDecodeAppendedGarbage: a stream with trailing data after the
// final production is rejected at decode time, for both wire versions —
// an admissible unit has exactly one on-the-wire spelling. A nonzero
// bit smuggled into the v1 zero padding of the last byte is rejected
// too.
func TestDecodeAppendedGarbage(t *testing.T) {
	mod := compileAll(t, testPrograms["arith"], false)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v1", wire.EncodeModule(mod)},
		{"v2", wire.EncodeModuleV2(mod, nil)},
	} {
		for _, tail := range [][]byte{{0x00}, {0xFF, 0x00, 0xAB}} {
			garbled := append(append([]byte{}, tc.data...), tail...)
			if _, err := wire.DecodeModule(garbled); err == nil {
				t.Fatalf("%s: %d trailing bytes accepted", tc.name, len(tail))
			} else if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%s: trailing bytes gave a non-decode error: %v", tc.name, err)
			}
		}
		// The exact stream still decodes.
		if _, err := wire.DecodeModule(tc.data); err != nil {
			t.Fatalf("%s: clean stream rejected: %v", tc.name, err)
		}
	}

}

// TestTryFinallyRoundTrip pins a bug that no longer reproduces: the
// decoder once refused its own encoder's output for a try/finally whose
// finally assigns a local the try also assigns and then does something
// that can throw (an array access) — "empty alphabet (no value of the
// required kind is in scope)" at O0 in both wire versions, and a variant
// in v2 only. The program admits and runs the same at every tier, both
// versions.
func TestTryFinallyRoundTrip(t *testing.T) {
	const src = `
class X {
    static int[] table = new int[8];
    static int risky(int i) { if (i == 0) { throw new Exception("x"); } return i; }
    static int guarded(int i) {
        int r = 0;
        try {
            try { r = risky(i); } finally { r = r + 1; table[7] = table[7] + 1; }
        } catch (ArithmeticException e) { r = -1; }
        return r;
    }
    static void main() { System.out.println(guarded(1)); }
}`
	for _, tier := range []struct {
		name string
		opt  *opt.Options
	}{{"O0", nil}, {"O1", &opt.Options{}}, {"O2", &opt.Options{ModuleLevel: true}}} {
		mod, err := driver.CompileTSASource(map[string]string{"X.tj": src})
		if err != nil {
			t.Fatal(err)
		}
		if tier.opt != nil {
			if _, err := driver.OptimizeModuleOptions(context.Background(), mod, *tier.opt); err != nil {
				t.Fatal(err)
			}
		}
		want := runMod(t, mod)
		if want != "2\n" {
			t.Fatalf("%s: the producer's module prints %q, want 2", tier.name, want)
		}
		for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
			dec, err := wire.DecodeVerified(data)
			if err != nil {
				t.Fatalf("%s %s: the decoder refuses its encoder's bytes: %v", tier.name, version, err)
			}
			if got := runMod(t, dec); got != want {
				t.Errorf("%s %s: the decoded module prints %q, want %q", tier.name, version, got, want)
			}
		}
	}
}

// TestEncoderPanicsOnRuleErrors: the encoder is a client of the same
// core.Signature the verifier checks, so a module that breaks an
// instruction's rule — which only a producer bug can hand it — has no
// encoding: the encoder panics rather than emit bytes the decoder would
// refuse or, worse, read back as a different module.
func TestEncoderPanicsOnRuleErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		hack func(tt *core.TypeTable, in *core.Instr)
		want string
	}{
		{"side condition", func(_ *core.TypeTable, in *core.Instr) { in.Op = core.OpXPrim }, "used with xprimitive"},
		{"result plane", func(tt *core.TypeTable, in *core.Instr) { in.Type = tt.Double }, "result on plane double"},
		{"arity", func(_ *core.TypeTable, in *core.Instr) { in.Args = in.Args[:1] }, "want 2 operands, have 1"},
		{"optimizer-internal opcode", func(_ *core.TypeTable, in *core.Instr) { in.Op = core.OpMem0 }, "memory-state value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := compileAll(t, testPrograms["arith"], false)
			var victim *core.Instr
			for _, f := range mod.Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Code {
						if victim == nil && in.Op == core.OpPrim && len(in.Args) == 2 {
							victim = in
						}
					}
				}
			}
			if victim == nil {
				t.Fatal("no binary primitive to break")
			}
			tc.hack(mod.Types, victim)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "is not externalizable") || !strings.Contains(msg, tc.want) {
					t.Fatalf("encoder said %q; want a panic naming the broken rule (%q)", msg, tc.want)
				}
			}()
			wire.EncodeModule(mod)
		})
	}
}

// TestEncoderRefusesAMisclaimedBody: a body holds only its claim, which
// the wire does not spell: the consumer takes it from the tables' claim on
// the body's index. So a body whose claim names another index is a
// producer bug the encoder refuses at both versions, whichever way the
// claim is wrong.
func TestEncoderRefusesAMisclaimedBody(t *testing.T) {
	const src = `
class Main {
    static int k = 7;
    static int twice(int x) { return x + x; }
    static void main() { System.out.println(twice(k)); }
}`
	body := func(mod *core.Module, member string) *core.Func {
		for _, f := range mod.Funcs {
			if strings.HasSuffix(mod.FuncName(f), member) {
				return f
			}
		}
		t.Fatalf("no body %s", member)
		return nil
	}
	for _, tc := range []struct {
		name  string
		body  string
		claim func(mod *core.Module) int32
	}{
		{"method body claiming another method", ".twice", func(mod *core.Module) int32 { return mod.Entry }},
		{"method body claiming a static initializer", ".twice", func(*core.Module) int32 { return -1 }},
		{"static initializer claiming a method", ".<clinit>", func(mod *core.Module) int32 { return body(mod, ".twice").Claim }},
	} {
		for version, encode := range map[string]func(*core.Module) []byte{
			"v1": wire.EncodeModule,
			"v2": func(m *core.Module) []byte { return wire.EncodeModuleV2(m, nil) },
		} {
			t.Run(tc.name+"/"+version, func(t *testing.T) {
				mod := compileAll(t, src, false)
				f := body(mod, tc.body)
				f.Claim = tc.claim(mod)
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "is not the body its tables claim") {
						t.Fatalf("encoder said %q; want a refusal of the misclaimed body", msg)
					}
				}()
				encode(mod)
			})
		}
	}
}

// TestTamperResistance is the paper's section 2 security argument made
// executable: flipping any single bit of a distribution unit must yield
// either a clean decode error or a module that still passes the verifier
// (i.e. is well-formed, if different). It must never produce an
// ill-formed reference or type-confused instruction, and executing the
// mutant must never corrupt the host (Go-level panic).
func TestTamperResistance(t *testing.T) {
	mod := compileAll(t, testPrograms["exceptions"], true)
	data := wire.EncodeModule(mod)
	step := 1
	if testing.Short() {
		step = 7
	}
	rejected, accepted := 0, 0
	for i := 0; i < len(data)*8; i += step {
		mut := bytes.Clone(data)
		mut[i/8] ^= 1 << (7 - i%8)
		dec, err := wire.DecodeModule(mut)
		if err != nil {
			rejected++
			continue
		}
		// The consumer's residual check is the cheap table/link
		// verification; a mutant may also fail there and be rejected.
		// What must NEVER happen is an accepted module corrupting the
		// host below.
		if err := dec.Verify(core.VerifyOptions{}); err != nil {
			rejected++
			continue
		}
		accepted++
		// A well-formed mutant must also be safely executable: the
		// consumer may observe different behaviour but never host
		// corruption.
		func() {
			defer func() {
				if r := recover(); r != nil && r != rt.ErrStepLimit {
					t.Fatalf("bit %d: executing mutant crashed the host: %v", i, r)
				}
			}()
			var out bytes.Buffer
			env := &rt.Env{Out: &out, MaxSteps: 200_000}
			if dec.Verify(core.VerifyOptions{}) != nil {
				return
			}
			if l, err := interp.LoadTrusted(dec, env); err == nil {
				_ = l.RunMain()
			}
		}()
	}
	t.Logf("tamper: %d bit flips rejected, %d decoded to well-formed modules", rejected, accepted)
	if rejected == 0 {
		t.Fatal("no flips rejected — the decoder is not validating")
	}
}
