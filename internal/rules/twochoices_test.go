package rules

import (
	"math"
	"slices"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/stats"
)

// twoChoicesPMF enumerates the exact law of one 2-Choices round from
// counts: per color i, D_i ~ Bin(c_i, S) nodes leave (S = ‖x‖₂²), and the
// M = Σ D_i leavers redistribute as Mult(M, x²/S), so the next count is
// c_i − D_i + W_i. The result maps each reachable next-count vector, keyed
// by countsKey, to its probability.
func twoChoicesPMF(counts []int) map[int]float64 {
	n, k := 0, len(counts)
	for _, c := range counts {
		n += c
	}
	s := 0.0
	q := make([]float64, k)
	for i, c := range counts {
		x := float64(c) / float64(n)
		q[i] = x * x
		s += q[i]
	}
	for i := range q {
		q[i] /= s
	}
	lf := func(m int) float64 { v, _ := math.Lgamma(float64(m) + 1); return v }
	pmf := make(map[int]float64)
	d := make([]int, k)
	next := make([]int, k)
	var departures func(i int, lp float64)
	departures = func(i int, lp float64) {
		if i == k {
			m := 0
			for _, di := range d {
				m += di
			}
			w := make([]int, k)
			var switchers func(j, rest int, lw float64)
			switchers = func(j, rest int, lw float64) {
				if j == k-1 {
					w[j] = rest
					if rest > 0 {
						lw += float64(rest)*math.Log(q[j]) - lf(rest)
					}
					for a := range next {
						next[a] = counts[a] - d[a] + w[a]
					}
					pmf[countsKey(next, n)] += math.Exp(lp + lf(m) + lw)
					return
				}
				for v := 0; v <= rest; v++ {
					w[j] = v
					add := 0.0
					if v > 0 {
						add = float64(v)*math.Log(q[j]) - lf(v)
					}
					switchers(j+1, rest-v, lw+add)
				}
			}
			switchers(0, m, 0)
			return
		}
		c := counts[i]
		for v := 0; v <= c; v++ {
			d[i] = v
			lb := lf(c) - lf(v) - lf(c-v) + float64(v)*math.Log(s) + float64(c-v)*math.Log1p(-s)
			departures(i+1, lp+lb)
		}
	}
	departures(0, 0)
	return pmf
}

// countsKey encodes a count vector over n nodes as one integer.
func countsKey(x []int, n int) int {
	key := 0
	for i := len(x) - 1; i >= 0; i-- {
		key = key*(n+1) + x[i]
	}
	return key
}

// TestTwoChoicesStepExactPMF checks one batch 2-Choices round against the
// exact keeper × switcher convolution by chi-square goodness of fit at
// stats.DefaultEquivalenceAlpha, in both regimes of Step. Singleton(8)
// (S = 1/8) and counts {1,1,1,1,1,1,2} (S = 5/32, unequal squares) draw
// their movers one by one; Balanced(8, 4) (S = 1/4) thins the departures
// and redistributes them by a multinomial. The regime of each start is
// asserted through twoChoicesSparse, so both stay covered. Seeded, so
// deterministic.
func TestTwoChoicesStepExactPMF(t *testing.T) {
	const draws = 200_000
	unequal, err := config.New([]int{1, 1, 1, 1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		start  *config.Config
		sparse bool
	}{
		{config.Singleton(8), true},
		{unequal, true},
		{config.Balanced(8, 4), false},
	} {
		start := tc.start
		s2, live := 0, 0
		for _, v := range start.CountsView() {
			s2 += v * v
			if v > 0 {
				live++
			}
		}
		if got := twoChoicesSparse(start.N(), s2, live); got != tc.sparse {
			t.Fatalf("%v: sparse regime %v, want %v", start.CountsView(), got, tc.sparse)
		}
		counts := append([]int(nil), start.CountsView()...)
		n := start.N()
		pmf := twoChoicesPMF(counts)
		// Order the outcomes by key so the test is deterministic.
		keys := make([]int, 0, len(pmf))
		for key := range pmf {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		index := make(map[int]int, len(keys))
		probs := make([]float64, len(keys))
		mass := 0.0
		for i, key := range keys {
			index[key] = i
			probs[i] = pmf[key]
			mass += probs[i]
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("%v: exact law has mass %v, want 1", counts, mass)
		}
		obs := make([]int, len(probs))
		rule := NewTwoChoices()
		r := rng.New(35)
		c := start.Clone()
		for d := 0; d < draws; d++ {
			copy(c.CountsView(), counts)
			rule.Step(c, r)
			i, ok := index[countsKey(c.CountsView(), n)]
			if !ok {
				t.Fatalf("%v: impossible next configuration %v", counts, c.CountsView())
			}
			obs[i]++
		}
		res, err := stats.ChiSquareGOF(obs, probs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
			t.Errorf("from %v: Step does not fit the exact law: stat=%.1f df=%d p=%.2g", counts, res.Stat, res.DF, res.P)
		}
	}
}
