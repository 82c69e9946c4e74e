//go:build !race

package codeserver

const raceEnabled = false
