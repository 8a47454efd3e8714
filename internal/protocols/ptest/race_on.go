//go:build race

package ptest

// RaceEnabled reports whether the race detector is built in. It makes
// sync.Pool drop returned items at random, so a steady-state allocation
// count over pooled encoders is only meaningful without it.
const RaceEnabled = true
