//go:build race

package wire_test

// raceEnabled: a race-detector build allocates a few more per decode than
// a plain one, so each allocation ceiling is committed per build mode.
const raceEnabled = true
