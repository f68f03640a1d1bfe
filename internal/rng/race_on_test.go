//go:build race

package rng

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
