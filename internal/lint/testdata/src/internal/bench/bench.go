// Package bench is the rnghygiene fixture for a package off the
// wall-clock allowlist: internal/bench is checked like any engine package,
// so timing on the wall clock is flagged.
package bench

import "time"

// Elapsed times one call of f on the wall clock.
func Elapsed(f func()) time.Duration {
	start := time.Now() // want `call of time\.Now`
	f()
	return time.Since(start) // want `call of time\.Since`
}
