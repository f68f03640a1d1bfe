package sim

// Rounds extracts the round counts of a replica batch as float64s, the form
// the stats package consumes.
func Rounds(results []*Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = float64(r.Rounds)
	}
	return out
}

// ColorTimes extracts, for each replica, the recorded T^κ for a single κ.
// Replicas that never reached κ colors are reported as missing via ok=false
// in the second return value (and excluded from the slice).
func ColorTimes(results []*Result, kappa int) (times []float64, allReached bool) {
	allReached = true
	for _, r := range results {
		t, ok := r.ColorTimes[kappa]
		if !ok {
			allReached = false
			continue
		}
		times = append(times, float64(t))
	}
	return times, allReached
}

// ConvergedCount returns how many replicas converged.
func ConvergedCount(results []*Result) int {
	n := 0
	for _, r := range results {
		if r.Converged {
			n++
		}
	}
	return n
}
