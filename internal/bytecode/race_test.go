//go:build race

package bytecode_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so what a pooled path allocates is not what it allocates.
const raceEnabled = true
