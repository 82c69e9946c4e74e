//go:build !race

package bytecode_test

const raceEnabled = false
