//go:build !race

package ptest

// RaceEnabled reports whether the race detector is built in (see
// race_on.go).
const RaceEnabled = false
