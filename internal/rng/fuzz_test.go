package rng

import (
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/stats"
)

// Fuzz targets for the exact discrete samplers the sharded per-node engines
// lean on. Under `go test` only the seeded corpus runs (deterministic);
// `go test -fuzz=FuzzBinomial ./internal/rng` explores further. The
// invariants checked are the ones a sampler bug would corrupt silently:
// support bounds, total-count conservation, and first-moment sanity.

func FuzzBinomial(f *testing.F) {
	f.Add(uint64(1), 10, 0.5)
	f.Add(uint64(2), 0, 0.3)
	f.Add(uint64(3), 1000, 0.001)
	f.Add(uint64(4), 5000, 0.9999)
	f.Add(uint64(5), 100000, 0.25) // BTRS branch
	f.Add(uint64(6), 7, 1.0)
	f.Add(uint64(7), 12, 0.0)
	f.Add(uint64(8), 999, 0.01)       // np = 9.99: inversion, just below the cutoff
	f.Add(uint64(9), 1000, 0.01)      // np = 10: BTRS at its floor
	f.Add(uint64(10), 1001, 0.01)     // np = 10.01
	f.Add(uint64(11), 1_000_000, 0.5) // the largest n in range, p = 1/2
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64) {
		if n < 0 || n > 1_000_000 {
			t.Skip("n out of the supported range")
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Skip("p outside [0, 1]")
		}
		r := New(seed)
		const draws = 64
		sum := 0.0
		for i := 0; i < draws; i++ {
			k := r.Binomial(n, p)
			if k < 0 || k > n {
				t.Fatalf("Binomial(%d, %g) = %d outside [0, %d]", n, p, k, n)
			}
			if p == 0 && k != 0 {
				t.Fatalf("Binomial(%d, 0) = %d, want 0", n, k)
			}
			if p == 1 && k != n {
				t.Fatalf("Binomial(%d, 1) = %d, want %d", n, k, n)
			}
			sum += float64(k)
		}
		// First-moment sanity: the empirical mean of 64 draws stays within
		// 8 standard errors of np, plus one unit of absolute slack for
		// distributions with near-zero variance. Non-adversarial: a seed
		// triggering the 8σ tail (~1e-15 per corpus entry) would indicate a
		// sampler bug long before bad luck.
		mean := sum / draws
		se := math.Sqrt(float64(n)*p*(1-p)) / math.Sqrt(draws)
		if diff := math.Abs(mean - float64(n)*p); diff > 8*se+1 {
			t.Fatalf("Binomial(%d, %g): empirical mean %.2f is %.1f away from np=%.2f (8se+1=%.2f)",
				n, p, mean, diff, float64(n)*p, 8*se+1)
		}
	})
}

func FuzzMultinomial(f *testing.F) {
	f.Add(uint64(1), 100, []byte{10, 20, 30, 40})
	f.Add(uint64(2), 0, []byte{1, 1})
	f.Add(uint64(3), 5000, []byte{255, 0, 0, 1})
	f.Add(uint64(4), 77, []byte{0, 0, 0})
	f.Add(uint64(5), 31, []byte{128})
	// Per-trial regime (n <= 9 per live slot), dead slots among the live.
	f.Add(uint64(6), 20, []byte{0, 200, 10, 255, 31, 100})
	f.Add(uint64(7), 9, []byte{31, 64, 31, 64, 31})
	f.Add(uint64(8), 18, []byte{33, 255})
	f.Add(uint64(9), 19, []byte{33, 255}) // one past the switch
	f.Add(uint64(10), 1, []byte{0, 0, 0, 0, 0, 0, 0, 40})
	f.Fuzz(func(t *testing.T, seed uint64, n int, probBytes []byte) {
		if n < 0 || n > 1_000_000 {
			t.Skip("n out of the supported range")
		}
		if len(probBytes) == 0 || len(probBytes) > 64 {
			t.Skip("no categories")
		}
		// Bytes below 32 become non-positive probabilities, so the
		// zero-assignment contract is exercised too.
		probs := make([]float64, len(probBytes))
		anyPositive := false
		for i, b := range probBytes {
			probs[i] = (float64(b) - 32) / 223
			if probs[i] > 0 {
				anyPositive = true
			}
		}
		r := New(seed)
		out := make([]int, len(probs))
		r.Multinomial(n, probs, out)
		total := 0
		for i, v := range out {
			if v < 0 {
				t.Fatalf("Multinomial: negative count %d in slot %d", v, i)
			}
			if probs[i] <= 0 && v != 0 {
				t.Fatalf("Multinomial: slot %d has non-positive probability %g but count %d", i, probs[i], v)
			}
			total += v
		}
		want := n
		if !anyPositive || n <= 0 {
			want = 0
		}
		if total != want {
			t.Fatalf("Multinomial: counts sum to %d, want %d (conservation)", total, want)
		}
	})
}

// FuzzThin checks Thin's invariants in both regimes and in place: the
// returned total equals Σ hits, 0 <= hits[i] <= counts[i], slots with
// non-positive counts get nothing, p = 0 and p = 1 are exact, and the mean
// total over 64 draws stays within 8 standard errors of n·p. Counts are
// the bytes less 16, so some are negative.
func FuzzThin(f *testing.F) {
	f.Add(uint64(1), 0.1, []byte{17, 18, 19, 20})
	f.Add(uint64(2), 0.5, []byte{16, 0, 40, 255})
	f.Add(uint64(3), 1.0, []byte{20, 30})
	f.Add(uint64(4), 0.0, []byte{20, 30})
	f.Add(uint64(5), 0.999999, []byte{17, 17, 17, 18})    // p near 1, skipping
	f.Add(uint64(6), 2.0/3, []byte{19, 19, 19})           // n·p = 2·live exactly
	f.Add(uint64(7), 2.0/3+1e-9, []byte{19, 19, 19})      // just past it
	f.Add(uint64(8), 1e-12, []byte{255, 255, 255, 255})   // gaps far past n
	f.Add(uint64(9), 0.3, []byte{255, 17, 255, 17, 0, 1}) // binomial regime
	f.Fuzz(func(t *testing.T, seed uint64, p float64, countBytes []byte) {
		if len(countBytes) == 0 || len(countBytes) > 64 {
			t.Skip("no slots")
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Skip("p outside [0, 1]")
		}
		counts := make([]int, len(countBytes))
		n := 0
		for i, b := range countBytes {
			counts[i] = int(b) - 16
			n += max(counts[i], 0)
		}
		r := New(seed)
		hits := make([]int, len(counts))
		const draws = 64
		sum := 0.0
		for d := 0; d < draws; d++ {
			var total int
			if d%2 == 0 {
				total = r.Thin(counts, p, hits)
			} else {
				copy(hits, counts)
				total = r.Thin(hits, p, hits)
			}
			got := 0
			for i, h := range hits {
				c := max(counts[i], 0)
				if h < 0 || h > c {
					t.Fatalf("Thin(p=%g): slot %d has %d hits of %d", p, i, h, counts[i])
				}
				if (p == 0 && h != 0) || (p == 1 && h != c) {
					t.Fatalf("Thin(p=%g): slot %d has %d hits of %d", p, i, h, counts[i])
				}
				got += h
			}
			if got != total {
				t.Fatalf("Thin(p=%g) returned %d, hits sum to %d", p, total, got)
			}
			sum += float64(total)
		}
		mean := sum / draws
		se := math.Sqrt(float64(n)*p*(1-p)) / math.Sqrt(draws)
		if diff := math.Abs(mean - float64(n)*p); diff > 8*se+1 {
			t.Fatalf("Thin(n=%d, p=%g): mean total %.2f is %.1f away from np=%.2f (8se+1=%.2f)",
				n, p, mean, diff, float64(n)*p, 8*se+1)
		}
	})
}

func FuzzAliasCounts(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4})
	f.Add(uint64(2), []byte{0, 0, 5})
	f.Add(uint64(3), []byte{255})
	f.Add(uint64(4), []byte{0, 1, 0, 1, 0, 255, 255})
	f.Fuzz(func(t *testing.T, seed uint64, countBytes []byte) {
		if len(countBytes) == 0 || len(countBytes) > 64 {
			t.Skip("no slots")
		}
		counts := make([]int, len(countBytes))
		total := 0
		for i, b := range countBytes {
			counts[i] = int(b)
			total += counts[i]
		}
		if total == 0 {
			t.Skip("all-zero counts panic by contract")
		}
		a := NewAliasCounts(counts)
		if a.Len() != len(counts) {
			t.Fatalf("Len = %d, want %d", a.Len(), len(counts))
		}
		r := New(seed)
		const draws = 256
		freq := make([]int, len(counts))
		for i := 0; i < draws; i++ {
			s := a.draw(r)
			if s < 0 || s >= len(counts) {
				t.Fatalf("Draw = %d outside [0, %d)", s, len(counts))
			}
			if counts[s] == 0 {
				t.Fatalf("Draw returned slot %d with zero count", s)
			}
			freq[s]++
		}
		// Rebuilding in place must yield the same distribution support, and
		// first-moment sanity: a slot holding the whole mass gets every draw;
		// generally the empirical frequency of the heaviest slot stays within
		// 8 binomial standard errors of its probability.
		a.ResetCounts(counts)
		heavy, heavyCount := 0, 0
		for i, c := range counts {
			if c > heavyCount {
				heavy, heavyCount = i, c
			}
		}
		ph := float64(heavyCount) / float64(total)
		se := math.Sqrt(ph * (1 - ph) / draws)
		if got := float64(freq[heavy]) / draws; math.Abs(got-ph) > 8*se+1.0/draws {
			t.Fatalf("heaviest slot %d drawn with frequency %.3f, want ~%.3f (8se=%.3f)", heavy, got, ph, 8*se)
		}
		for i := 0; i < 32; i++ {
			if s := a.draw(r); counts[s] == 0 {
				t.Fatalf("after ResetCounts: Draw returned dead slot %d", s)
			}
		}
	})
}

// FuzzAliasDrawN pins the batched fill to the scalar draw two ways: with a
// shared seed the streams must be bit-identical, and across independent
// streams the two count vectors must be chi-square homogeneous. The
// homogeneity alpha is 1e-9 — far below the suites' usual 1e-3 — so fuzz
// exploration over arbitrary seeds cannot flake on a true null; a real
// divergence between the two code paths blows far past it.
func FuzzAliasDrawN(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4})
	f.Add(uint64(2), []byte{0, 0, 5})
	f.Add(uint64(3), []byte{255})
	f.Add(uint64(4), []byte{0, 1, 0, 1, 0, 255, 255})
	f.Add(uint64(5), []byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, countBytes []byte) {
		if len(countBytes) == 0 || len(countBytes) > 64 {
			t.Skip("no slots")
		}
		counts := make([]int, len(countBytes))
		total := 0
		for i, b := range countBytes {
			counts[i] = int(b)
			total += counts[i]
		}
		if total == 0 {
			t.Skip("all-zero counts panic by contract")
		}
		a := NewAliasCounts(counts)

		// Bit-identity on a shared seed.
		r1, r2 := New(seed), New(seed)
		buf := make([]int, 512)
		a.DrawN(r1, buf)
		for i, v := range buf {
			if got := a.draw(r2); got != v {
				t.Fatalf("draw %d: DrawN=%d Draw=%d (streams diverged)", i, v, got)
			}
			if v < 0 || v >= len(counts) || counts[v] == 0 {
				t.Fatalf("draw %d: slot %d invalid or dead", i, v)
			}
		}

		// Distributional identity on independent streams.
		base := New(seed)
		rn, rd := base.Derive(0), base.Derive(1)
		const draws = 2048
		big := make([]int, draws)
		a.DrawN(rn, big)
		freqN := make([]int, len(counts))
		freqD := make([]int, len(counts))
		for _, v := range big {
			freqN[v]++
		}
		for i := 0; i < draws; i++ {
			freqD[a.draw(rd)]++
		}
		chi, err := stats.ChiSquareHomogeneity(freqN, freqD)
		if err != nil {
			t.Fatal(err)
		}
		if !chi.IndistinguishableAt(1e-9) {
			t.Fatalf("DrawN and Draw count vectors differ: %v vs %v (stat=%.2f p=%.2g)",
				freqN, freqD, chi.Stat, chi.P)
		}
	})
}
