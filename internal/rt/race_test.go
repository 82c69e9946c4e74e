//go:build race

package rt

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a released chunk is not always the next one handed out.
const raceEnabled = true
