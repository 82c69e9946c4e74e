package oracle

import (
	"bytes"
	"errors"
	"fmt"

	"safetsa/internal/core"
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
	first := wire.EncodeModuleV2(mod, dict)
	dec, err := wire.DecodeModuleOpts(first, wire.DecodeOptions{Dict: dict})
	if err != nil {
		return fmt.Errorf("oracle: v2-encoded module does not decode: %w", err)
	}
	if err := dec.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: v2 re-decoded module rejected by verifier: %w", err)
	}
	second := wire.EncodeModuleV2(dec, dict)
	if !bytes.Equal(first, second) {
		return fmt.Errorf("oracle: v2 wire form is not canonical: re-encoding %d bytes yielded %d different bytes",
			len(first), len(second))
	}
	if mod.Dump() != dec.Dump() {
		return fmt.Errorf("oracle: v2 round trip is not structure-preserving")
	}
	return nil
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
// and the stream's error from there on. A consuming cursor over the same
// bytes must say what the retaining one says and count what it kept
// (checkConsuming). On acceptance
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
	if err := checkConsuming(data, o, su, streamErr); err != nil {
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

// checkConsuming holds a consuming cursor over data to the retaining one,
// su (nil when it refused the head), whose verdict was streamErr: the same
// rule with no body kept must give the same verdict for the same reason,
// admit as many bodies, and count as many instructions as the bodies the
// retaining cursor kept hold — the unit's, when it was admitted.
func checkConsuming(data []byte, o wire.DecodeOptions, su *wire.StreamingUnit, streamErr error) error {
	var a wire.Arena
	cu, err := wire.DecodeConsumingStream(bytes.NewReader(data), o, &a)
	if err == nil {
		err = cu.Wait()
	}
	if (err == nil) != (streamErr == nil) || err != nil && err.Error() != streamErr.Error() {
		return fmt.Errorf("oracle: consuming and retaining cursors disagree:\nconsuming: %v\nretaining: %v", err, streamErr)
	}
	if (cu == nil) != (su == nil) {
		return fmt.Errorf("oracle: one cursor refused the head and the other did not")
	}
	if su == nil {
		return nil
	}
	kept := 0
	for _, f := range su.Mod.Funcs {
		kept += f.NumInstrs()
	}
	if cu.Ready() != su.Ready() || su.Ready() != len(su.Mod.Funcs) || cu.NumInstrs() != su.NumInstrs() || su.NumInstrs() != kept || len(cu.Mod.Funcs) != 0 {
		return fmt.Errorf("oracle: the consuming cursor admitted %d bodies of %d instructions (kept %d), the retaining one %d of %d (kept %d bodies of %d)",
			cu.Ready(), cu.NumInstrs(), len(cu.Mod.Funcs), su.Ready(), su.NumInstrs(), len(su.Mod.Funcs), kept)
	}
	return nil
}

// checkRejectedPrefix inspects a stream that failed after its tables were
// admitted: the gate opened for a prefix of the functions and for
// nothing else, and the rule stands behind every function it opened for.
func checkRejectedPrefix(su *wire.StreamingUnit) error {
	adm, err := su.Mod.VerifyTables(su.NumFuncs())
	if err != nil {
		return fmt.Errorf("oracle: stream started on tables the static check rejects: %w", err)
	}
	// Wait has failed, so the cursor is latched: Ready cannot move again.
	ready, n := su.Ready(), su.NumFuncs()
	for j := 0; j < ready; j++ {
		if err := su.WaitFunc(j); err != nil {
			return fmt.Errorf("oracle: admitted function %d is no longer available: %v", j, err)
		}
		if err := adm.Admit(j, su.Mod.Funcs[j], core.VerifyOptions{}); err != nil {
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
