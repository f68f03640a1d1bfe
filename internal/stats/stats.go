// Package stats provides the summary statistics, empirical distribution
// comparisons, and scaling-law fits used to turn repeated simulation runs
// into the quantities the paper's theorems speak about: "w.h.p." bounds
// become quantiles, stochastic dominance becomes an ECDF comparison, and
// asymptotic growth rates become log-log regression slopes.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	Q25    float64
	Q75    float64
	Q95    float64
}

// Summarize computes a Summary of data. It returns a zero Summary for an
// empty sample.
func Summarize(data []float64) Summary {
	if len(data) == 0 {
		return Summary{}
	}
	s := Summary{
		N:   len(data),
		Min: math.Inf(1),
		Max: math.Inf(-1),
	}
	sum := 0.0
	for _, v := range data {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range data {
			d := v - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q25 = quantileSorted(sorted, 0.25)
	s.Q75 = quantileSorted(sorted, 0.75)
	s.Q95 = quantileSorted(sorted, 0.95)
	return s
}

// Mean returns the arithmetic mean; 0 for an empty sample.
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CI95HalfWidth returns the half-width of a normal-approximation 95%
// confidence interval for the mean of data.
func CI95HalfWidth(data []float64) float64 {
	s := Summarize(data)
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. It returns an error on empty input.
func NewECDF(data []float64) (*ECDF, error) {
	if len(data) == 0 {
		return nil, errors.New("stats: empty sample for ECDF")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// Eval returns F(x) = P(X <= x) under the empirical distribution.
func (e *ECDF) Eval(x float64) float64 {
	// Number of points <= x.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// DominatedBy reports whether the distribution of e is stochastically
// dominated by f (e ≤st f): F_e(x) >= F_f(x) - slack for every x in the
// merged support. slack absorbs sampling noise; pass e.g. 2-3 binomial
// standard errors.
func (e *ECDF) DominatedBy(f *ECDF, slack float64) bool {
	for _, x := range e.sorted {
		if e.Eval(x) < f.Eval(x)-slack {
			return false
		}
	}
	for _, x := range f.sorted {
		if e.Eval(x) < f.Eval(x)-slack {
			return false
		}
	}
	return true
}

// KSDistance returns the Kolmogorov–Smirnov statistic sup |F_e - F_f| over
// the merged supports.
func KSDistance(e, f *ECDF) float64 {
	d := 0.0
	for _, x := range e.sorted {
		if diff := math.Abs(e.Eval(x) - f.Eval(x)); diff > d {
			d = diff
		}
	}
	for _, x := range f.sorted {
		if diff := math.Abs(e.Eval(x) - f.Eval(x)); diff > d {
			d = diff
		}
	}
	return d
}

// Fit is an ordinary least-squares line fit y = Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits a least-squares line through (x, y). It returns an error if
// fewer than two points are given, lengths mismatch, or x is degenerate.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, errors.New("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		return Fit{}, errors.New("stats: LinearFit needs at least two points")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: LinearFit degenerate x")
	}
	slope := sxy / sxx
	fit := Fit{
		Slope:     slope,
		Intercept: my - slope*mx,
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// LogLogFit fits log(y) = Slope*log(x) + Intercept; the slope estimates the
// polynomial growth exponent of y in x. All inputs must be positive.
func LogLogFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, errors.New("stats: LogLogFit length mismatch")
	}
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return Fit{}, errors.New("stats: LogLogFit requires positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	return LinearFit(lx, ly)
}
