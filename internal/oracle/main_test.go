package oracle_test

import (
	"os"
	"testing"

	"safetsa/internal/rt"
)

// TestMain runs the package with rt.PoisonRecycled on: the oracles release
// every session they have compared, as the server releases every session
// it has answered, so a host reference kept past a release reads poison —
// or the next session's objects — and the oracle that kept it diverges.
func TestMain(m *testing.M) {
	rt.PoisonRecycled(true)
	os.Exit(m.Run())
}
