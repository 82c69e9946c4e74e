package oracle_test

import (
	"os"
	"testing"

	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// TestMain runs the package with rt.PoisonRecycled and wire.PoisonRecycled
// on: the oracles release every session they have compared, as the server
// releases every session it has answered, and reclaim every arena a cursor
// was lent, as the server gives back every arena, so a host reference kept
// past a release reads poison — or the next session's objects — and the
// oracle that kept it diverges.
func TestMain(m *testing.M) {
	rt.PoisonRecycled(true)
	wire.PoisonRecycled(true)
	os.Exit(m.Run())
}
