package rng

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/ignorecomply/consensus/internal/stats"
)

// Exact-law checks: the count samplers' draws against their enumerated
// pmfs, by chi-square goodness of fit at stats.DefaultEquivalenceAlpha, in
// each of their regimes. The runs are seeded, so the suite is
// deterministic: it cannot flake, only regress.

// compositions calls visit with every vector of k non-negative integers
// summing to n, in lexicographic order. visit must not retain x.
func compositions(n, k int, visit func(x []int)) {
	x := make([]int, k)
	var rec func(i, rest int)
	rec = func(i, rest int) {
		if i == k-1 {
			x[i] = rest
			visit(x)
			return
		}
		for v := 0; v <= rest; v++ {
			x[i] = v
			rec(i+1, rest-v)
		}
	}
	rec(0, n)
}

// boxes calls visit with every vector x of len(bounds) with
// 0 <= x[i] <= bounds[i], in lexicographic order. visit must not retain x.
func boxes(bounds []int, visit func(x []int)) {
	x := make([]int, len(bounds))
	var rec func(i int)
	rec = func(i int) {
		if i == len(bounds) {
			visit(x)
			return
		}
		for v := 0; v <= max(bounds[i], 0); v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// multinomialPMF is P(Mult(Σx, probs/Σprobs) = x).
func multinomialPMF(x []int, probs []float64) float64 {
	total, n := 0.0, 0
	for i, p := range probs {
		if p > 0 {
			total += p
		}
		n += x[i]
	}
	lp := lgamma(float64(n) + 1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		if probs[i] <= 0 {
			return 0
		}
		lp += float64(xi)*math.Log(probs[i]/total) - lgamma(float64(xi)+1)
	}
	return math.Exp(lp)
}

// lgamma is math.Lgamma without the sign result (all arguments are >= 1).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// binomialPMF is P(Bin(n, p) = x).
func binomialPMF(x, n int, p float64) float64 {
	lc := lgamma(float64(n)+1) - lgamma(float64(x)+1) - lgamma(float64(n-x)+1)
	return math.Exp(lc + float64(x)*math.Log(p) + float64(n-x)*math.Log1p(-p))
}

// vectorKey encodes a vector with entries in [0, radix) as one integer.
func vectorKey(x []int, radix int) int {
	key := 0
	for i := len(x) - 1; i >= 0; i-- {
		key = key*radix + x[i]
	}
	return key
}

// fitPMF tallies draws of draw() over the enumerated outcomes (keyed by
// vectorKey at radix) and tests the tally against pmf. An outcome outside
// the enumeration is impossible and fails the test outright.
func fitPMF(t *testing.T, name string, keys []int, pmf []float64, radix, draws int, draw func() []int) {
	t.Helper()
	index := make(map[int]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	obs := make([]int, len(keys))
	for d := 0; d < draws; d++ {
		x := draw()
		i, ok := index[vectorKey(x, radix)]
		if !ok {
			t.Fatalf("%s: impossible outcome %v", name, x)
		}
		obs[i]++
	}
	res, err := stats.ChiSquareGOF(obs, pmf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("%s: draws do not fit the exact pmf: stat=%.1f df=%d p=%.2g", name, res.Stat, res.DF, res.P)
	}
}

// TestMultinomialExactPMF checks Mult(n, p) in both regimes over the same
// probabilities, one of them zero: n = 6 draws trial by trial (6 <= 9·3
// live slots), n = 40 by conditional binomials. The n = 18 two-slot case
// sits on the switch with a million draws, enough to see one alias
// threshold off by 1e-3.
func TestMultinomialExactPMF(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		probs []float64
		draws int
	}{
		{"per-trial/n=6,k=4", 6, []float64{0.1, 0.2, 0, 0.7}, 100_000},
		{"binomial/n=40,k=4", 40, []float64{0.1, 0.2, 0, 0.7}, 100_000},
		{"per-trial/n=18,k=2", 18, []float64{0.1, 0.9}, 1_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var keys []int
			var pmf []float64
			compositions(tc.n, len(tc.probs), func(x []int) {
				if p := multinomialPMF(x, tc.probs); p > 0 {
					keys = append(keys, vectorKey(x, tc.n+1))
					pmf = append(pmf, p)
				}
			})
			r := New(61)
			out := make([]int, len(tc.probs))
			fitPMF(t, tc.name, keys, pmf, tc.n+1, tc.draws, func() []int {
				r.Multinomial(tc.n, tc.probs, out)
				return out
			})
		})
	}
}

// TestThinExactPMF checks Thin against the product of independent
// binomials in both regimes, including a zero-count slot, which must get
// no hit, and p near 1 under geometric skipping. Half the draws thin in
// place (hits aliasing counts), half into a separate slice; both must
// follow the law, and the returned total must equal Σ hits.
func TestThinExactPMF(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
		p      float64
	}{
		{"skip/p=0.3", []int{3, 0, 2, 4}, 0.3},         // n·p = 2.7 <= 2·3
		{"binomial/p=0.8", []int{3, 0, 2, 4}, 0.8},     // n·p = 7.2 > 2·3
		{"skip/p=0.95", []int{1, 1, 0, 1, 2}, 0.95},    // n·p = 4.75 <= 2·4
		{"skip/p=0.05", []int{7, 1, 1, 1, 1, 1}, 0.05}, // one heavy slot
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var keys []int
			var pmf []float64
			radix := 0
			for _, c := range tc.counts {
				radix = max(radix, c+1)
			}
			boxes(tc.counts, func(h []int) {
				p := 1.0
				for i, hi := range h {
					p *= binomialPMF(hi, tc.counts[i], tc.p)
				}
				keys = append(keys, vectorKey(h, radix))
				pmf = append(pmf, p)
			})
			r := New(62)
			hits := make([]int, len(tc.counts))
			d := 0
			fitPMF(t, tc.name, keys, pmf, radix, 200_000, func() []int {
				d++
				var got int
				if d%2 == 0 {
					copy(hits, tc.counts)
					got = r.Thin(hits, tc.p, hits)
				} else {
					got = r.Thin(tc.counts, tc.p, hits)
				}
				sum := 0
				for _, h := range hits {
					sum += h
				}
				if got != sum {
					t.Fatalf("Thin returned %d, hits sum to %d", got, sum)
				}
				return hits
			})
		})
	}
}

// TestHitPositionsExactPMF checks HitPositions against n independent
// Bernoulli(p) trials: the hit set, as a 0/1 vector over the n
// positions, must follow the product law, and the positions must come
// out strictly increasing and in [0, n). The edges p = 0, p = 1 and n = 0
// are checked exactly.
func TestHitPositionsExactPMF(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"p=0.3", 6, 0.3},
		{"p=0.05", 8, 0.05},
		{"p=0.9", 5, 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var keys []int
			var pmf []float64
			ones := make([]int, tc.n)
			for i := range ones {
				ones[i] = 1
			}
			boxes(ones, func(x []int) {
				p := 1.0
				for _, hit := range x {
					p *= binomialPMF(hit, 1, tc.p)
				}
				keys = append(keys, vectorKey(x, 2))
				pmf = append(pmf, p)
			})
			r := New(63)
			var pos []int
			set := make([]int, tc.n)
			fitPMF(t, tc.name, keys, pmf, 2, 200_000, func() []int {
				pos = r.HitPositions(tc.n, tc.p, pos)
				clear(set)
				for i, q := range pos {
					if q < 0 || q >= tc.n || (i > 0 && q <= pos[i-1]) {
						t.Fatalf("positions %v are not increasing in [0, %d)", pos, tc.n)
					}
					set[q] = 1
				}
				return set
			})
		})
	}
	r := New(64)
	if got := r.HitPositions(5, 0, nil); len(got) != 0 {
		t.Errorf("p = 0: hits %v, want none", got)
	}
	if got := r.HitPositions(0, 0.5, nil); len(got) != 0 {
		t.Errorf("n = 0: hits %v, want none", got)
	}
	if got := r.HitPositions(5, 1, nil); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("p = 1: hits %v, want every position", got)
	}
}

// TestMultinomialPooledScratchIsInvisible: the per-trial regime's scratch
// is pooled across goroutines, so concurrent draws over supports of
// different widths must reproduce, bit for bit, the same streams drawn one
// goroutine at a time. Run it under -race to check the pool's sharing.
func TestMultinomialPooledScratchIsInvisible(t *testing.T) {
	const workers, rounds = 4, 50
	draw := func(w int) []int {
		k := 64 << w
		probs := make([]float64, k)
		for i := range probs {
			probs[i] = float64(i%7) + 0.5
		}
		r := New(uint64(70 + w))
		out := make([]int, k)
		var all []int
		for i := 0; i < rounds; i++ {
			r.Multinomial(k, probs, out)
			all = append(all, out...)
		}
		return all
	}
	want := make([][]int, workers)
	for w := range want {
		want[w] = draw(w)
	}
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = draw(w)
		}()
	}
	wg.Wait()
	for w := range want {
		if !slices.Equal(got[w], want[w]) {
			t.Errorf("worker %d: concurrent draws differ from sequential ones", w)
		}
	}
}
