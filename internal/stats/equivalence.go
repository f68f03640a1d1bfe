package stats

// Statistical-equivalence tests: the machinery that makes the sharded
// parallel engines trustworthy. A sharded run is *not* bit-identical to a
// sequential one (nodes are reassigned to different random streams), so
// correctness of the parallel round is a distributional statement: the
// consensus-time and winner distributions it induces must be
// indistinguishable from the sequential engine's. The cross-validation
// suites assert that with the two-sample Kolmogorov–Smirnov and chi-square
// homogeneity tests below.
//
// False-positive budget: each test rejects a true null with probability at
// most alpha. The suites use DefaultEquivalenceAlpha = 1e-3 per comparison;
// with on the order of ten comparisons per package test run, the overall
// probability of a spurious failure is ~1%, and because every simulation
// is seeded the outcome is deterministic — a suite that passes once passes
// always, until the sampling code itself changes. Round counts are
// integers, so samples are heavily tied; ties make the KS p-value
// conservative (the true false-positive rate is below alpha), which is the
// safe direction for a regression gate.

import (
	"errors"
	"math"
)

// DefaultEquivalenceAlpha is the per-comparison false-positive budget the
// cross-validation suites use: a true-null comparison fails with
// probability <= 1e-3 (see the package-level note on seeding).
const DefaultEquivalenceAlpha = 1e-3

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the KS statistic sup |F_x - F_y|.
	D float64
	// P is the asymptotic p-value of D under the null hypothesis that both
	// samples come from the same distribution.
	P float64
	// Nx, Ny are the sample sizes.
	Nx, Ny int
}

// IndistinguishableAt reports whether the test fails to reject equality at
// level alpha (P >= alpha).
func (k KSResult) IndistinguishableAt(alpha float64) bool { return k.P >= alpha }

// TwoSampleKS runs the two-sample Kolmogorov–Smirnov test on x and y. The
// p-value uses the asymptotic Kolmogorov distribution with the standard
// finite-sample correction (Numerical Recipes §14.3); it is accurate for
// effective sample sizes >= ~4 and conservative under ties.
func TwoSampleKS(x, y []float64) (KSResult, error) {
	if len(x) == 0 || len(y) == 0 {
		return KSResult{}, errors.New("stats: TwoSampleKS requires non-empty samples")
	}
	ex, err := NewECDF(x)
	if err != nil {
		return KSResult{}, err
	}
	ey, err := NewECDF(y)
	if err != nil {
		return KSResult{}, err
	}
	d := KSDistance(ex, ey)
	nx, ny := float64(len(x)), float64(len(y))
	ne := nx * ny / (nx + ny)
	sqne := math.Sqrt(ne)
	lambda := (sqne + 0.12 + 0.11/sqne) * d
	return KSResult{D: d, P: ksQ(lambda), Nx: len(x), Ny: len(y)}, nil
}

// ksQ is the complementary CDF of the Kolmogorov distribution,
// Q(λ) = 2 Σ_{j>=1} (-1)^{j-1} exp(-2 j² λ²), clamped to [0, 1].
func ksQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const (
		eps1    = 1e-6 // term-to-sum convergence
		eps2    = 1e-16
		maxIter = 100
	)
	a2 := -2 * lambda * lambda
	sum, termBF := 0.0, 0.0
	sign := 1.0
	for j := 1; j <= maxIter; j++ {
		term := sign * 2 * math.Exp(a2*float64(j)*float64(j))
		sum += term
		if math.Abs(term) <= eps1*termBF || math.Abs(term) <= eps2*sum {
			return clamp01(sum)
		}
		sign = -sign
		termBF = math.Abs(term)
	}
	return 1 // failed to converge: λ ~ 0, distributions equal
}

// ChiSquareResult is the outcome of a chi-square test.
type ChiSquareResult struct {
	// Stat is the chi-square statistic.
	Stat float64
	// DF is the degrees of freedom.
	DF int
	// P is the p-value P(χ²_DF >= Stat).
	P float64
}

// IndistinguishableAt reports whether the test fails to reject the null at
// level alpha (P >= alpha).
func (c ChiSquareResult) IndistinguishableAt(alpha float64) bool { return c.P >= alpha }

// ChiSquareHomogeneity tests whether two vectors of category counts (e.g.
// winner-color tallies from two engines) are drawn from the same
// categorical distribution. Categories where both counts are zero are
// ignored; df = (#informative categories - 1). The chi-square
// approximation wants expected counts >= ~5 in most cells; with seeded
// suites a marginal cell only makes the test conservative.
func ChiSquareHomogeneity(a, b []int) (ChiSquareResult, error) {
	if len(a) != len(b) {
		return ChiSquareResult{}, errors.New("stats: ChiSquareHomogeneity length mismatch")
	}
	na, nb := 0, 0
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return ChiSquareResult{}, errors.New("stats: ChiSquareHomogeneity requires non-negative counts")
		}
		na += a[i]
		nb += b[i]
	}
	if na == 0 || nb == 0 {
		return ChiSquareResult{}, errors.New("stats: ChiSquareHomogeneity requires positive totals")
	}
	total := float64(na + nb)
	stat := 0.0
	cats := 0
	for i := range a {
		pooled := float64(a[i] + b[i])
		if pooled == 0 {
			continue
		}
		cats++
		ea := pooled * float64(na) / total
		eb := pooled * float64(nb) / total
		da := float64(a[i]) - ea
		db := float64(b[i]) - eb
		stat += da*da/ea + db*db/eb
	}
	if cats < 2 {
		// One shared category: trivially homogeneous.
		return ChiSquareResult{Stat: 0, DF: 0, P: 1}, nil
	}
	df := cats - 1
	return ChiSquareResult{Stat: stat, DF: df, P: ChiSquareSF(stat, df)}, nil
}

// ChiSquareUniform is the chi-square goodness-of-fit test of observed
// category counts against the uniform distribution over the given
// categories (e.g. winner-color tallies of a symmetric start, where by
// symmetry every color must win equally often). df = len(counts) - 1.
// The usual >= ~5 expected-count guidance applies; small expected counts
// make the test anti-conservative, so callers should keep
// replicas/categories reasonably large.
func ChiSquareUniform(counts []int) (ChiSquareResult, error) {
	if len(counts) < 2 {
		return ChiSquareResult{}, errors.New("stats: ChiSquareUniform requires >= 2 categories")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return ChiSquareResult{}, errors.New("stats: ChiSquareUniform requires non-negative counts")
		}
		total += c
	}
	if total == 0 {
		return ChiSquareResult{}, errors.New("stats: ChiSquareUniform requires a positive total")
	}
	expected := float64(total) / float64(len(counts))
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	df := len(counts) - 1
	return ChiSquareResult{Stat: stat, DF: df, P: ChiSquareSF(stat, df)}, nil
}

// ChiSquareGOF is the chi-square goodness-of-fit test of observed category
// counts against an exact distribution, probs (normalized by its sum): the
// one-sample check of a sampler against its enumerated pmf. Categories
// expected fewer than 5 times are pooled into one cell, and that cell, if
// still expected fewer than 5 times, into the rarest kept one, so a pmf
// with a long tail of rare outcomes can be passed as is. An observation in
// a zero-probability category is impossible under the null and gives
// P = 0. df = (#cells - 1).
func ChiSquareGOF(observed []int, probs []float64) (ChiSquareResult, error) {
	if len(observed) != len(probs) {
		return ChiSquareResult{}, errors.New("stats: ChiSquareGOF length mismatch")
	}
	total, mass := 0, 0.0
	for i, o := range observed {
		if o < 0 || !(probs[i] >= 0) {
			return ChiSquareResult{}, errors.New("stats: ChiSquareGOF requires non-negative counts and probabilities")
		}
		total += o
		mass += probs[i]
	}
	if total == 0 || mass <= 0 {
		return ChiSquareResult{}, errors.New("stats: ChiSquareGOF requires positive totals")
	}
	const minExpected = 5
	type cell struct{ obs, exp float64 }
	var cells []cell
	var pool cell
	for i, o := range observed {
		e := float64(total) * probs[i] / mass
		switch {
		case e == 0 && o > 0:
			return ChiSquareResult{Stat: math.Inf(1), P: 0}, nil
		case e < minExpected:
			pool.obs += float64(o)
			pool.exp += e
		default:
			cells = append(cells, cell{float64(o), e})
		}
	}
	if pool.exp >= minExpected || (pool.exp > 0 && len(cells) == 0) {
		cells = append(cells, pool)
	} else if pool.exp > 0 {
		rarest := 0
		for i, c := range cells {
			if c.exp < cells[rarest].exp {
				rarest = i
			}
		}
		cells[rarest].obs += pool.obs
		cells[rarest].exp += pool.exp
	}
	if len(cells) < 2 {
		return ChiSquareResult{Stat: 0, DF: 0, P: 1}, nil
	}
	stat := 0.0
	for _, c := range cells {
		d := c.obs - c.exp
		stat += d * d / c.exp
	}
	df := len(cells) - 1
	return ChiSquareResult{Stat: stat, DF: df, P: ChiSquareSF(stat, df)}, nil
}

// ChiSquareSF is the chi-square survival function P(χ²_df >= x).
func ChiSquareSF(x float64, df int) float64 {
	if df <= 0 {
		panic("stats: ChiSquareSF requires df >= 1")
	}
	if x <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, x/2)
}

// gammaQ is the regularized upper incomplete gamma function Q(a, x) =
// Γ(a, x)/Γ(a), computed by the series expansion for x < a+1 and the
// Lentz continued fraction otherwise (Numerical Recipes §6.2).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		panic("stats: gammaQ requires x >= 0, a > 0")
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return clamp01(1 - gammaPSeries(a, x))
	}
	return clamp01(gammaQCF(a, x))
}

// gammaPSeries computes P(a, x) by its power series (converges fast for
// x < a+1).
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
	)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgamma(a))
}

// gammaQCF computes Q(a, x) by the modified Lentz continued fraction
// (converges fast for x >= a+1).
func gammaQCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		fpmin   = 1e-300
	)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgamma(a)) * h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
