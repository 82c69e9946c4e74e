package oracle

import (
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// ParityOutcome runs admissible bytes through the three-engine parity
// check and reports how the reference session ended: its kill reason
// ("" for none) and step count, which parity makes every engine's.
func ParityOutcome(data []byte, b Budgets) (kill string, steps int64, err error) {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return "", 0, err
	}
	ref, err := engineParity(mod, b)
	if err != nil {
		return "", 0, err
	}
	return rt.KillReason(ref.err), ref.env.Steps, nil
}
