package oracle_test

import (
	"os"
	"testing"

	"safetsa/internal/core"
)

// TestMain runs the package with core.PoisonRecycled on: the oracles
// release every session they have compared, as the server releases every
// session it has answered, and rewind every arena a cursor was lent, as
// the server gives back every arena, so a host reference kept past a
// release reads poison — or the next session's objects — and the oracle
// that kept it diverges.
func TestMain(m *testing.M) {
	core.PoisonRecycled(true)
	os.Exit(m.Run())
}
