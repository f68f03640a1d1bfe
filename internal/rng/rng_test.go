package rng

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ignorecomply/consensus/internal/stats"
)

func TestNewDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at draw %d: %d != %d", i, got, want)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/64 identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	base := New(7)
	r1 := base.Derive(1)
	r2 := base.Derive(2)
	same := 0
	for i := 0; i < 64; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams 1 and 2 produced %d/64 identical draws", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(4)
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical mean %.4f", got)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(5)
	tests := []struct {
		n    int
		p    float64
		want int
	}{
		{n: 0, p: 0.5, want: 0},
		{n: -3, p: 0.5, want: 0},
		{n: 10, p: 0, want: 0},
		{n: 10, p: 1, want: 10},
		{n: 10, p: -0.2, want: 0},
		{n: 10, p: 1.5, want: 10},
	}
	for _, tt := range tests {
		if got := r.Binomial(tt.n, tt.p); got != tt.want {
			t.Errorf("Binomial(%d, %v) = %d, want %d", tt.n, tt.p, got, tt.want)
		}
	}
}

// binomialMoments draws samples and checks mean and variance against np and
// np(1-p) within a tolerance scaled to the standard error.
func binomialMoments(t *testing.T, r *RNG, n int, p float64, draws int) {
	t.Helper()
	mean := float64(n) * p
	variance := float64(n) * p * (1 - p)
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		x := r.Binomial(n, p)
		if x < 0 || x > n {
			t.Fatalf("Binomial(%d, %v) = %d out of range", n, p, x)
		}
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	gotMean := sum / float64(draws)
	gotVar := sumSq/float64(draws) - gotMean*gotMean
	// 6 standard errors of the mean.
	seMean := math.Sqrt(variance / float64(draws))
	if math.Abs(gotMean-mean) > 6*seMean+1e-9 {
		t.Errorf("Binomial(%d, %v): mean %.3f, want %.3f (se %.3f)", n, p, gotMean, mean, seMean)
	}
	if variance > 0 && math.Abs(gotVar-variance) > 0.15*variance+1 {
		t.Errorf("Binomial(%d, %v): var %.3f, want %.3f", n, p, gotVar, variance)
	}
}

func TestBinomialMomentsInversion(t *testing.T) {
	r := New(6)
	binomialMoments(t, r, 20, 0.3, 40000)      // np = 6
	binomialMoments(t, r, 1000, 0.0099, 40000) // np = 9.9 < cutoff
	binomialMoments(t, r, 7, 0.5, 40000)
}

func TestBinomialMomentsBTRS(t *testing.T) {
	r := New(7)
	binomialMoments(t, r, 1000, 0.2, 40000)     // np = 200
	binomialMoments(t, r, 100000, 0.001, 40000) // np = 100
	binomialMoments(t, r, 500, 0.5, 40000)
	binomialMoments(t, r, 10000, 0.9, 40000) // exercises the symmetry branch
}

// TestBinomialChiSquare tests Binomial's draws against the exact pmf by
// chi-square goodness of fit at stats.DefaultEquivalenceAlpha, in every
// regime: inversion below np = 10, BTRS at its floor np = 10 and at the
// middle-game means 10–30, p = 1/2, the p > 1/2 mirror, n = 10⁵ with a
// small p, and np = 60. At np = 10 the full acceptance test runs about
// 0.8 times per draw, so an error in a Stirling tail shows there: its four
// million draws detect dropping the series' 1/12 term, which moves
// stirlingTail(10) by 1/(12·11).
func TestBinomialChiSquare(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		p     float64
		draws int
	}{
		{name: "inversion", n: 12, p: 0.4, draws: 1_000_000},
		{name: "inversion-np=9.99", n: 999, p: 0.01, draws: 1_000_000},
		{name: "btrs-np=10", n: 1000, p: 0.01, draws: 4_000_000},
		{name: "btrs-np=12", n: 40, p: 0.3, draws: 1_000_000},
		{name: "btrs-np=25", n: 250, p: 0.1, draws: 1_000_000},
		{name: "btrs-p=0.5", n: 60, p: 0.5, draws: 1_000_000},
		{name: "btrs-p>0.5", n: 40, p: 0.7, draws: 1_000_000},
		{name: "btrs-n=1e5,np=20", n: 100_000, p: 0.0002, draws: 1_000_000},
		{name: "btrs", n: 200, p: 0.3, draws: 1_000_000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New(8)
			obs := make([]int, tt.n+1)
			for i := 0; i < tt.draws; i++ {
				obs[r.Binomial(tt.n, tt.p)]++
			}
			pmf := make([]float64, tt.n+1)
			for k := range pmf {
				pmf[k] = binomialPMF(k, tt.n, tt.p)
			}
			res, err := stats.ChiSquareGOF(obs, pmf)
			if err != nil {
				t.Fatal(err)
			}
			if !res.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
				t.Errorf("Binomial(%d, %v): draws do not fit the exact pmf: stat=%.1f df=%d p=%.2g",
					tt.n, tt.p, res.Stat, res.DF, res.P)
			}
		})
	}
}

func TestBinomialQuickProperties(t *testing.T) {
	r := New(9)
	prop := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := float64(pRaw) / 65535.0
		x := r.Binomial(n, p)
		return x >= 0 && x <= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialSumsToN(t *testing.T) {
	r := New(10)
	prop := func(nRaw uint16, w1, w2, w3, w4 uint8) bool {
		n := int(nRaw % 10000)
		probs := []float64{float64(w1), float64(w2), float64(w3), float64(w4)}
		positive := false
		for _, p := range probs {
			if p > 0 {
				positive = true
			}
		}
		if !positive {
			probs[0] = 1
		}
		out := make([]int, 4)
		r.Multinomial(n, probs, out)
		sum := 0
		for i, x := range out {
			if x < 0 {
				return false
			}
			if probs[i] == 0 && x != 0 {
				return false
			}
			sum += x
		}
		return sum == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialMarginalMeans(t *testing.T) {
	r := New(11)
	probs := []float64{0.5, 0.25, 0.125, 0.125}
	const n, draws = 1000, 20000
	sums := make([]float64, len(probs))
	out := make([]int, len(probs))
	for i := 0; i < draws; i++ {
		r.Multinomial(n, probs, out)
		for j, x := range out {
			sums[j] += float64(x)
		}
	}
	for j, p := range probs {
		got := sums[j] / draws
		want := float64(n) * p
		se := math.Sqrt(float64(n) * p * (1 - p) / draws)
		if math.Abs(got-want) > 8*se+0.5 {
			t.Errorf("marginal %d: mean %.2f, want %.2f", j, got, want)
		}
	}
}

func TestMultinomialUnnormalized(t *testing.T) {
	r := New(12)
	out := make([]int, 3)
	r.Multinomial(100, []float64{2, 2, 4}, out)
	if out[0]+out[1]+out[2] != 100 {
		t.Fatalf("unnormalized multinomial sums to %d", out[0]+out[1]+out[2])
	}
}

func TestMultinomialZeroTrials(t *testing.T) {
	r := New(13)
	out := []int{99, 99}
	r.Multinomial(0, []float64{0.5, 0.5}, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("zero-trial multinomial = %v", out)
	}
}

func TestMultinomialLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(14).Multinomial(10, []float64{1}, make([]int, 2))
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(15)
	probs := []float64{0.1, 0, 0.6, 0.3}
	const draws = 100000
	counts := make([]int, len(probs))
	for i := 0; i < draws; i++ {
		counts[categorical(r, probs)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-probability category drawn %d times", counts[1])
	}
	for i, p := range probs {
		got := float64(counts[i]) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("category %d: frequency %.4f, want %.4f", i, got, p)
		}
	}
}

func TestCategoricalCounts(t *testing.T) {
	r := New(16)
	counts := []int{5, 0, 15}
	const draws = 60000
	hits := make([]int, 3)
	for i := 0; i < draws; i++ {
		hits[r.CategoricalCounts(counts, 20)]++
	}
	if hits[1] != 0 {
		t.Fatalf("zero-count category drawn %d times", hits[1])
	}
	if got := float64(hits[0]) / draws; math.Abs(got-0.25) > 0.01 {
		t.Errorf("category 0 frequency %.4f, want 0.25", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const p, draws = 0.2, 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		g := geometric(r, p)
		if g < 0 {
			t.Fatalf("Geometric returned %d", g)
		}
		sum += float64(g)
	}
	want := (1 - p) / p // mean number of failures
	if got := sum / draws; math.Abs(got-want) > 0.1 {
		t.Errorf("Geometric(%v) mean %.3f, want %.3f", p, got, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	if got := geometric(New(18), 1); got != 0 {
		t.Fatalf("Geometric(1) = %d", got)
	}
}

func TestFillIntNRangeAndUniformity(t *testing.T) {
	r := New(61)
	const (
		n     = 7
		draws = 70000
	)
	dst := make([]int, draws)
	r.FillIntN(n, dst)
	freq := make([]int, n)
	for _, v := range dst {
		if v < 0 || v >= n {
			t.Fatalf("FillIntN value %d outside [0, %d)", v, n)
		}
		freq[v]++
	}
	want := float64(draws) / n
	for i, c := range freq {
		// 5 sigma of multinomial noise per cell.
		sigma := math.Sqrt(want * (1 - 1.0/n))
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("value %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestFillIntNSingleValue(t *testing.T) {
	r := New(62)
	dst := make([]int, 64)
	r.FillIntN(1, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("FillIntN(1) wrote %d at %d", v, i)
		}
	}
}

func TestFillIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(63).FillIntN(0, make([]int, 1))
}

func TestFillIntNZeroAllocs(t *testing.T) {
	r := New(64)
	dst := make([]int, 1024)
	if avg := testing.AllocsPerRun(20, func() { r.FillIntN(12, dst) }); avg != 0 {
		t.Fatalf("FillIntN allocates %.2f times per batch, want 0", avg)
	}
}

// categorical returns an index sampled proportionally to probs (which need
// not be normalized). It panics if no entry is positive. Linear time; use
// an Alias for repeated draws from a fixed distribution.
func categorical(r *RNG, probs []float64) int {
	total := 0.0
	for _, p := range probs {
		if p > 0 {
			total += p
		}
	}
	if total <= 0 {
		panic("rng: categorical requires a positive entry")
	}
	u := r.Float64() * total
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		u -= p
		if u < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive entry.
	for i := len(probs) - 1; i >= 0; i-- {
		if probs[i] > 0 {
			return i
		}
	}
	return 0
}

// geometric returns the number of failures before the first success in
// Bernoulli(p) trials. p must be in (0, 1].
func geometric(r *RNG, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: geometric requires p in (0, 1]")
	}
	return r.skipGap(math.Log1p(-p), math.MaxInt)
}
