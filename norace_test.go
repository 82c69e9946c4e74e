//go:build !race

package safetsa

const raceEnabled = false
