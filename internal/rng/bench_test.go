package rng

import (
	"fmt"
	"testing"
)

// BenchmarkBinomial contrasts the two sampler regimes: CDF inversion for
// means below 10 and BTRS transformed rejection from 10 up (the design
// choice that makes batch rounds O(k) regardless of n). np = 10, 15, 25
// and 29 are the means 3-Majority's middle game draws from the singleton
// start; n = 10⁹ is the biased regime's largest cell.
func BenchmarkBinomial(b *testing.B) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{name: "np=5", n: 1000, p: 0.005},
		{name: "np=10", n: 1000, p: 0.01},
		{name: "np=15", n: 1000, p: 0.015},
		{name: "np=25", n: 1000, p: 0.025},
		{name: "np=29", n: 1000, p: 0.029},
		{name: "np=100", n: 1000, p: 0.1},
		{name: "np=100,n=1e5", n: 100_000, p: 0.001},
		{name: "np=1e6", n: 10_000_000, p: 0.1},
		{name: "n=1e9,p=0.3", n: 1_000_000_000, p: 0.3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += r.Binomial(tc.n, tc.p)
			}
			_ = sink
		})
	}
}

// BenchmarkMultinomial sweeps the category count at a million trials,
// where conditional binomials cost O(k) per draw, and the per-trial regime
// at n = k (the singleton start's first round), plus both sides of the
// n = tallyTrialsPerLive·k switch at k = 1024. Uniform probabilities make
// every alias column keep its own slot, so the per-trial cases also run
// skewed probabilities (weight i%7+1), where the keep-or-alias select is a
// coin flip per trial.
func BenchmarkMultinomial(b *testing.B) {
	cases := []struct {
		n, k   int
		skewed bool
	}{
		{n: 1_000_000, k: 10},
		{n: 1_000_000, k: 1000},
		{n: 1_000_000, k: 100_000},
		{n: 1024, k: 1024},
		{n: 65536, k: 65536},
		{n: tallyTrialsPerLive * 1024, k: 1024},
		{n: tallyTrialsPerLive*1024 + 1, k: 1024},
		{n: 256, k: 256, skewed: true},
		{n: 4096, k: 4096, skewed: true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n=%d,k=%d", tc.n, tc.k)
		if tc.skewed {
			name += ",skewed"
		}
		b.Run(name, func(b *testing.B) {
			r := New(2)
			probs := make([]float64, tc.k)
			for i := range probs {
				probs[i] = 1 / float64(tc.k)
				if tc.skewed {
					probs[i] = float64(i%7 + 1)
				}
			}
			out := make([]int, tc.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Multinomial(tc.n, probs, out)
			}
		})
	}
}

// BenchmarkThin thins 1024 singleton slots on both sides of the
// n·p = thinSkipHitsPerLive·live switch: geometric skipping costs one Log1p
// per hit, the binomial regime one Binomial per live slot.
func BenchmarkThin(b *testing.B) {
	counts := make([]int, 1024)
	for i := range counts {
		counts[i] = 1
	}
	hits := make([]int, len(counts))
	for _, p := range []float64{1.0 / 1024, 0.5, 0.999} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			r := New(6)
			for i := 0; i < b.N; i++ {
				r.Thin(counts, p, hits)
			}
		})
	}
}

// BenchmarkCategoricalVsAlias justifies the alias table in the agent
// engine: linear-scan categorical is O(k) per draw, alias O(1).
func BenchmarkCategoricalVsAlias(b *testing.B) {
	const k = 4096
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = float64(i%17 + 1)
	}
	b.Run("categorical-linear", func(b *testing.B) {
		r := New(3)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += categorical(r, weights)
		}
		_ = sink
	})
	b.Run("alias", func(b *testing.B) {
		r := New(3)
		a := newAlias(weights)
		b.ResetTimer()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += a.draw(r)
		}
		_ = sink
	})
	b.Run("alias-including-build", func(b *testing.B) {
		r := New(3)
		sink := 0
		for i := 0; i < b.N; i++ {
			a := newAlias(weights)
			sink += a.draw(r)
		}
		_ = sink
	})
}

// BenchmarkAliasDrawN contrasts the scalar one-word draw with the batched
// fill: the fill keeps the generator in locals and amortizes table bounds
// checks, which is what the per-node engines' strided sample buffers buy.
// The k = 16 near-balanced table (counts within ±3% of each other) is the
// per-node workload's 3-Majority from Balanced(n, 16): most columns keep
// with probability near, but not at, 1.
func BenchmarkAliasDrawN(b *testing.B) {
	const k = 64
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = float64(i%7 + 1)
	}
	a := newAlias(weights)
	b.Run("draw", func(b *testing.B) {
		r := New(4)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += a.draw(r)
		}
		_ = sink
	})
	for _, batch := range []int{64, 1024} {
		b.Run(fmt.Sprintf("drawn-%d", batch), func(b *testing.B) {
			r := New(4)
			dst := make([]int, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				a.DrawN(r, dst)
			}
		})
	}
	balanced := make([]int, 16)
	for i := range balanced {
		balanced[i] = 3125 + (i*37)%191 - 95
	}
	nb := NewAliasCounts(balanced)
	b.Run("drawn-1024,k=16,near-balanced", func(b *testing.B) {
		r := New(4)
		dst := make([]int, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(dst) {
			nb.DrawN(r, dst)
		}
	})
}

// BenchmarkFillIntN measures the batched uniform fill the graph engine's
// regular-topology fast path uses.
func BenchmarkFillIntN(b *testing.B) {
	r := New(5)
	dst := make([]int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		r.FillIntN(1000, dst)
	}
}
