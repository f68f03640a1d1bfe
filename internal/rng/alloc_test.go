package rng

import "testing"

// TestBinomialZeroAllocs: both sampling regimes — binomialInversion (and
// its binomialP0) for means below the cutoff and binomialBTRS from it up —
// are allocation-free
// on every call, including BTRS's full acceptance test (btrsLogRatio and
// stirlingTail, from the table at np = 10 and from the series at n = 10⁹).
func TestBinomialZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"inversion", 1000, 0.005},         // np = 5 < cutoff: binomialInversion
		{"btrs-floor", 1000, 0.01},         // np = 10: binomialBTRS at its floor
		{"btrs", 100_000, 0.3},             // np = 30000
		{"btrs-n=1e9", 1_000_000_000, 0.3}, // every Stirling tail from the series
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New(51)
			sink := 0
			avg := testing.AllocsPerRun(100, func() { sink += r.Binomial(tc.n, tc.p) })
			if avg != 0 {
				t.Errorf("Binomial(%d, %v) allocates %.2f times, want 0", tc.n, tc.p, avg)
			}
			_ = sink
		})
	}
}

// TestAliasResetZeroSteadyStateAllocs: Reset and ResetCounts rebuild the
// table in place — zero allocations once the scratch has reached its
// steady-state capacity (here, from construction).
func TestAliasResetZeroSteadyStateAllocs(t *testing.T) {
	weights := []float64{5, 1, 3, 7, 2}
	a := NewAlias(weights)
	if avg := testing.AllocsPerRun(100, func() { a.Reset(weights) }); avg != 0 {
		t.Errorf("Reset allocates %.2f times, want 0", avg)
	}
	counts := []int{5, 1, 3, 7, 2}
	if avg := testing.AllocsPerRun(100, func() { a.ResetCounts(counts) }); avg != 0 {
		t.Errorf("ResetCounts allocates %.2f times, want 0", avg)
	}
}

// TestMultinomialZeroSteadyStateAllocs: both regimes allocate nothing once
// the pooled scratch of multinomialTally covers the support — n = k = 1024
// draws trial by trial, n = 10⁶ by conditional binomials. A fifth of the
// slots have probability zero. Under -race, where sync.Pool drops the
// scratch at random, the draws run but their allocation count is not
// checked.
func TestMultinomialZeroSteadyStateAllocs(t *testing.T) {
	probs := make([]float64, 1024)
	for i := range probs {
		probs[i] = float64(i % 5)
	}
	out := make([]int, len(probs))
	for _, n := range []int{1024, 1_000_000} {
		r := New(52)
		r.Multinomial(n, probs, out)
		if avg := testing.AllocsPerRun(100, func() { r.Multinomial(n, probs, out) }); avg != 0 && !raceEnabled {
			t.Errorf("Multinomial(%d, k=%d) allocates %.2f times, want 0", n, len(probs), avg)
		}
	}
}

// TestThinZeroAllocs: Thin allocates nothing in either regime — geometric
// skipping, one skipGap per hit, at p = 0.01 and per-slot binomials at
// p = 0.9 — into a separate slice or in place.
func TestThinZeroAllocs(t *testing.T) {
	counts := make([]int, 1024)
	for i := range counts {
		counts[i] = i % 4
	}
	hits := make([]int, len(counts))
	for _, p := range []float64{0.01, 0.9} {
		r := New(53)
		if avg := testing.AllocsPerRun(100, func() { r.Thin(counts, p, hits) }); avg != 0 {
			t.Errorf("Thin(p=%v) allocates %.2f times, want 0", p, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			copy(hits, counts)
			r.Thin(hits, p, hits)
		}); avg != 0 {
			t.Errorf("Thin(p=%v) in place allocates %.2f times, want 0", p, avg)
		}
	}
}
