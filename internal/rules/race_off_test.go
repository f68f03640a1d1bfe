//go:build !race

package rules

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops items at random, so the allocation tests of the
// pooled multinomial scratch check their counts only without it.
const raceEnabled = false
