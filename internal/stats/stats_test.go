package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ignorecomply/consensus/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if !almostEqual(s.Var, 2.5, 1e-12) {
		t.Fatalf("Var = %v, want 2.5", s.Var)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Var != 0 {
		t.Fatalf("single Summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{4, 1, 3, 2}
	if got := quantile(data, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantile(data, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := quantile(data, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{name: "empty", fn: func() { quantile(nil, 0.5) }},
		{name: "q too big", fn: func() { quantile([]float64{1}, 1.5) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := rng.New(41)
	small := make([]float64, 20)
	large := make([]float64, 2000)
	for i := range small {
		small[i] = r.Float64()
	}
	for i := range large {
		large[i] = r.Float64()
	}
	if CI95HalfWidth(small) <= CI95HalfWidth(large) {
		t.Fatal("CI should shrink with sample size")
	}
	if CI95HalfWidth([]float64{1}) != 0 {
		t.Fatal("single-point CI should be 0")
	}
}

func TestECDFEval(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{x: 0, want: 0},
		{x: 1, want: 0.25},
		{x: 2, want: 0.75},
		{x: 3, want: 0.75},
		{x: 4, want: 1},
		{x: 9, want: 1},
	}
	for _, tt := range tests {
		if got := e.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestDominatedBy(t *testing.T) {
	// a is uniformly smaller than b, so a <=st b.
	a, _ := NewECDF([]float64{1, 2, 3})
	b, _ := NewECDF([]float64{4, 5, 6})
	if !a.DominatedBy(b, 0) {
		t.Error("smaller sample should be dominated")
	}
	if b.DominatedBy(a, 0) {
		t.Error("larger sample should not be dominated")
	}
	// Equal distributions dominate both ways.
	if !a.DominatedBy(a, 0) {
		t.Error("self-dominance must hold")
	}
}

func TestDominatedBySlack(t *testing.T) {
	// Slightly interleaved: dominance fails strictly but holds with slack.
	a, _ := NewECDF([]float64{1, 2, 10})
	b, _ := NewECDF([]float64{1.5, 2.5, 3})
	if a.DominatedBy(b, 0) {
		t.Error("strict dominance should fail (a has mass at 10)")
	}
	if !a.DominatedBy(b, 0.5) {
		t.Error("dominance with generous slack should hold")
	}
}

func TestKSDistance(t *testing.T) {
	a, _ := NewECDF([]float64{1, 2, 3})
	b, _ := NewECDF([]float64{1, 2, 3})
	if got := KSDistance(a, b); got != 0 {
		t.Errorf("KS of identical samples = %v", got)
	}
	c, _ := NewECDF([]float64{10, 20, 30})
	if got := KSDistance(a, c); got != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", got)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 1, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error: too few points")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error: length mismatch")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("expected error: degenerate x")
	}
}

func TestLogLogFitRecoversExponent(t *testing.T) {
	// y = 5 * x^0.75
	var x, y []float64
	for _, v := range []float64{10, 100, 1000, 10000} {
		x = append(x, v)
		y = append(y, 5*math.Pow(v, 0.75))
	}
	fit, err := LogLogFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0.75, 1e-9) {
		t.Fatalf("slope = %v, want 0.75", fit.Slope)
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	if _, err := LogLogFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("expected error on non-positive x")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	prop := func(raw []uint8, q1Raw, q2Raw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
		}
		q1 := float64(q1Raw) / 255
		q2 := float64(q2Raw) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		s := Summarize(data)
		v1, v2 := quantile(data, q1), quantile(data, q2)
		return v1 <= v2+1e-9 && v1 >= s.Min-1e-9 && v2 <= s.Max+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ECDF is a valid CDF (monotone, 0 at -inf side, 1 at max).
func TestQuickECDFValid(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
		}
		e, err := NewECDF(data)
		if err != nil {
			return false
		}
		s := Summarize(data)
		if e.Eval(s.Min-1) != 0 || e.Eval(s.Max) != 1 {
			return false
		}
		prev := 0.0
		for x := s.Min; x <= s.Max; x++ {
			cur := e.Eval(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// quantile returns the q-quantile (0 <= q <= 1) of data with linear
// interpolation. It panics on empty data or q outside [0, 1].
func quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0, 1]")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}
