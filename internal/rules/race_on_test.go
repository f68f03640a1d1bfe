//go:build race

package rules

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
