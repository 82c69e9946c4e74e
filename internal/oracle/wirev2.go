package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// CheckCanonicalWireV2 asserts the canonical-form invariant for the
// adaptive v2 wire format, per model version: encoding a verified
// module with the given shared dictionary (nil for none), decoding the
// bytes with the same dictionary, and encoding again must reproduce the
// first byte string exactly — the adaptive frequency models update
// symmetrically on both sides, so the spelling is a function of the
// module and the negotiated model alone. The decoded module must also
// be structurally identical to the input.
func CheckCanonicalWireV2(mod *core.Module, dict *wire.Dictionary) error {
	return checkCanonical(mod, dict, "v2 ", func(m *core.Module) []byte { return wire.EncodeModuleV2(m, dict) })
}

// CheckStreamingWire holds the two ways of driving the one admission
// cursor to each other over arbitrary bytes. One-shot
// (wire.DecodeVerified) drains it in one call and streaming
// (wire.DecodeVerifiedStream) as far as it is asked, so they must agree
// on the verdict and, on rejection, on the reason — the same error text
// for the first rejected function — and every rejection is a
// wire.ErrMalformed or a wire.ErrUnsupportedVersion. A rejected stream
// must hold exactly the functions before the rejected one: WaitFunc
// answers nil for those, each of which the rule admits when asked again,
// and the stream's error from there on. A cursor over the same bytes lent
// an arena another unit used and gave back must say what the one with an
// arena of its own says (checkLentArena). On acceptance
// the streamed module must be structurally identical to the fully
// decoded one, pass Module.Verify (the same rule, run all at once), and
// execute under the budgets without crashing the host.
func CheckStreamingWire(data []byte, b Budgets) error {
	return CheckStreamingWireOpts(data, wire.DecodeOptions{}, b)
}

// CheckStreamingWireOpts is CheckStreamingWire for a stream that needs
// negotiation state (a shared dictionary).
func CheckStreamingWireOpts(data []byte, o wire.DecodeOptions, b Budgets) error {
	full, fullErr := wire.DecodeVerifiedOpts(data, o)
	su, streamErr := wire.DecodeVerifiedStream(bytes.NewReader(data), o)
	if streamErr == nil {
		streamErr = su.Wait()
	}
	if (fullErr == nil) != (streamErr == nil) {
		return fmt.Errorf("oracle: streaming and full decode disagree on admissibility:\nfull:   %v\nstream: %v",
			fullErr, streamErr)
	}
	if err := checkLentArena(data, o, su, streamErr); err != nil {
		return err
	}
	if fullErr != nil {
		if fullErr.Error() != streamErr.Error() {
			return fmt.Errorf("oracle: streaming and full decode reject for different reasons:\nfull:   %v\nstream: %v",
				fullErr, streamErr)
		}
		if !errors.Is(fullErr, wire.ErrMalformed) && !errors.Is(fullErr, wire.ErrUnsupportedVersion) {
			return fmt.Errorf("oracle: rejection is neither ErrMalformed nor ErrUnsupportedVersion: %v", fullErr)
		}
		if su != nil {
			return checkRejectedPrefix(su)
		}
		return nil // both rejected the header or the tables
	}
	if full.Dump() != su.Mod.Dump() {
		return fmt.Errorf("oracle: streamed module differs structurally from the full decode")
	}
	if err := su.Mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: streamed module rejected by verifier: %w", err)
	}
	_, _ = runBounded(su.Mod, b)
	return nil
}

// checkLentArena holds a cursor over data lent an arena to the one with
// an arena of its own, su (nil when it refused the head), whose verdict
// was streamErr. The arena is one a neighbouring unit was decoded into and
// gave back (wire.Arena.Rewind), so nothing that unit left in the chunks,
// the scratch, the site maps, the model or the read buffer may reach this
// one: the same bytes must give the same verdict for the same reason and
// admit as many bodies of as many instructions, and on acceptance the
// module must re-encode to the very bytes su's does. Under
// core.PoisonRecycled the neighbour's memory is junk by then, and must
// still never be read.
func checkLentArena(data []byte, o wire.DecodeOptions, su *wire.StreamingUnit, streamErr error) error {
	a := new(wire.Arena)
	nu, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(neighbour()), wire.DecodeOptions{}, a)
	if err == nil {
		err = nu.Wait()
	}
	if err != nil {
		return fmt.Errorf("oracle: the neighbouring unit is refused: %w", err)
	}
	a.Rewind()
	lu, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(data), o, a)
	if err == nil {
		err = lu.Wait()
	}
	if (err == nil) != (streamErr == nil) || err != nil && err.Error() != streamErr.Error() {
		return fmt.Errorf("oracle: a lent arena and an arena of the cursor's own disagree:\nlent: %v\nown:  %v", err, streamErr)
	}
	if (lu == nil) != (su == nil) {
		return fmt.Errorf("oracle: one cursor refused the head and the other did not")
	}
	if su == nil {
		return nil
	}
	if lu.Ready() != su.Ready() || lu.Mod.NumInstrs() != su.Mod.NumInstrs() {
		return fmt.Errorf("oracle: in a lent arena the cursor admitted %d bodies of %d instructions, in its own %d of %d",
			lu.Ready(), lu.Mod.NumInstrs(), su.Ready(), su.Mod.NumInstrs())
	}
	if err == nil && !bytes.Equal(wire.EncodeModuleV2(lu.Mod, o.Dict), wire.EncodeModuleV2(su.Mod, o.Dict)) {
		return fmt.Errorf("oracle: the module decoded in a lent arena re-encodes differently")
	}
	return nil
}

// neighbour is the unit checkLentArena's arena holds before it is lent:
// classes, a virtual call, loops, arrays, strings and a try region, so
// that every slab, the site maps and the model hold something.
var neighbour = sync.OnceValue(func() []byte {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": `
class A { int x; A(int v) { x = v; } int get() { return x; } }
class B extends A { B(int v) { super(v * 2); } int get() { return x + 1; } }
class Main {
    static int f(int[] v, int d) {
        int s = 0;
        for (int i = 0; i < v.length; i++) {
            try { s += v[i] / d; } catch (ArithmeticException e) { s -= 1; }
        }
        return s;
    }
    static void main() {
        A a = new B(10);
        int[] v = new int[4];
        for (int i = 0; i < v.length; i++) v[i] = i * a.get();
        System.out.println("s=" + f(v, 0) + f(v, 2));
    }
}`})
	if err != nil {
		panic(err)
	}
	return wire.EncodeModuleV2(mod, nil)
})

// checkRejectedPrefix inspects a stream that failed after its tables were
// admitted: the gate opened for a prefix of the functions and for
// nothing else, and the rule stands behind every function it opened for.
func checkRejectedPrefix(su *wire.StreamingUnit) error {
	adm, err := su.Mod.DeriveTables(nil)
	if err != nil {
		return fmt.Errorf("oracle: stream started on tables the static check rejects: %w", err)
	}
	// Wait has failed, so the cursor is latched: Ready cannot move again.
	ready, n := su.Ready(), su.NumFuncs()
	for j := 0; j < ready; j++ {
		if err := su.WaitFunc(j); err != nil {
			return fmt.Errorf("oracle: admitted function %d is no longer available: %v", j, err)
		}
		if err := adm.Admit(j, su.Mod.Funcs[j]); err != nil {
			return fmt.Errorf("oracle: stream admitted a function the rule rejects: %w", err)
		}
	}
	// The rejected function and the last one (a hostile header may
	// declare millions; the ones between are gated by the same counter).
	for _, j := range []int{ready, n - 1} {
		if j >= ready && j < n && su.WaitFunc(j) == nil {
			return fmt.Errorf("oracle: WaitFunc(%d) opened the gate at or past the rejected function %d", j, ready)
		}
	}
	return nil
}

// CheckAdaptiveWire is the fuzz oracle behind FuzzAdaptiveWire: any
// byte string that passes wire admission (either version) must be in
// canonical form under both the v1 fixed-code and the v2 adaptive
// model, and the streaming decoder must agree with the full decoder on
// both the verdict and the structure. Clean rejections — including the
// version errors a dictionary-bearing stream draws without its
// dictionary — return nil.
func CheckAdaptiveWire(data []byte, b Budgets) error {
	if mod, err := wire.DecodeModule(data); err == nil {
		if err := mod.Verify(core.VerifyOptions{}); err != nil {
			return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
		}
		if err := CheckCanonicalWire(mod); err != nil {
			return err
		}
		if err := CheckCanonicalWireV2(mod, nil); err != nil {
			return err
		}
	}
	return CheckStreamingWire(data, b)
}
