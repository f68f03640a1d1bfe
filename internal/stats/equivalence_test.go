package stats

import (
	"math"
	"testing"
)

func TestChiSquareSFKnownQuantiles(t *testing.T) {
	// Textbook upper-tail critical values: P(χ²_df >= x).
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{2.706, 1, 0.10},
		{5.991, 2, 0.05},
		{7.815, 3, 0.05},
		{18.307, 10, 0.05},
		{29.588, 10, 0.001},
		{0.5, 4, 0.9735}, // series branch (x < a+1)
	}
	for _, tc := range cases {
		got := ChiSquareSF(tc.x, tc.df)
		if math.Abs(got-tc.want) > 2e-3 {
			t.Errorf("ChiSquareSF(%.3f, %d) = %.5f, want ~%.4f", tc.x, tc.df, got, tc.want)
		}
	}
	if p := ChiSquareSF(0, 3); p != 1 {
		t.Errorf("ChiSquareSF(0, 3) = %v, want 1", p)
	}
}

func TestGammaQComplement(t *testing.T) {
	// Q(a, x) + P(a, x) = 1 across both branches.
	for _, a := range []float64{0.5, 1, 2.5, 10} {
		for _, x := range []float64{0.1, 1, 3, 10, 40} {
			q := gammaQ(a, x)
			p := 1 - q
			if q < 0 || q > 1 {
				t.Fatalf("gammaQ(%v, %v) = %v out of [0,1]", a, x, q)
			}
			// Check monotonicity in x: larger x, smaller Q.
			if x > 0.1 {
				if q2 := gammaQ(a, x-0.05); q2 < q {
					t.Errorf("gammaQ not decreasing in x at a=%v x=%v", a, x)
				}
			}
			_ = p
		}
	}
}

func TestTwoSampleKSIdenticalSamples(t *testing.T) {
	x := make([]float64, 80)
	for i := range x {
		x[i] = float64(i)
	}
	res, err := TwoSampleKS(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Fatalf("D = %v, want 0 for identical samples", res.D)
	}
	if res.P < 0.999 {
		t.Fatalf("P = %v, want ~1 for identical samples", res.P)
	}
	if !res.IndistinguishableAt(DefaultEquivalenceAlpha) {
		t.Fatal("identical samples flagged as distinguishable")
	}
}

func TestTwoSampleKSDisjointSamples(t *testing.T) {
	x := make([]float64, 60)
	y := make([]float64, 60)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i + 1000)
	}
	res, err := TwoSampleKS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Fatalf("D = %v, want 1 for disjoint samples", res.D)
	}
	if res.P > 1e-10 {
		t.Fatalf("P = %v, want ~0 for disjoint samples", res.P)
	}
	if res.IndistinguishableAt(DefaultEquivalenceAlpha) {
		t.Fatal("disjoint samples flagged as indistinguishable")
	}
}

func TestTwoSampleKSCriticalLambda(t *testing.T) {
	// The Kolmogorov distribution's 5% point is λ ≈ 1.358.
	if q := ksQ(1.358); math.Abs(q-0.05) > 2e-3 {
		t.Errorf("ksQ(1.358) = %.4f, want ~0.05", q)
	}
	if q := ksQ(1.628); math.Abs(q-0.01) > 1e-3 {
		t.Errorf("ksQ(1.628) = %.4f, want ~0.01", q)
	}
	if q := ksQ(0); q != 1 {
		t.Errorf("ksQ(0) = %v, want 1", q)
	}
}

func TestTwoSampleKSShiftDetected(t *testing.T) {
	// A half-unit shift of a unit-spaced grid: detectable at n = 200.
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = float64(i % 20)
		y[i] = float64(i%20) + 6
	}
	res, err := TwoSampleKS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-4 {
		t.Fatalf("P = %v for a 6-unit shift, want tiny", res.P)
	}
}

func TestChiSquareHomogeneitySameDistribution(t *testing.T) {
	a := []int{25, 25, 24, 26}
	b := []int{24, 26, 25, 25}
	res, err := ChiSquareHomogeneity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 3 {
		t.Fatalf("DF = %d, want 3", res.DF)
	}
	if !res.IndistinguishableAt(0.05) {
		t.Fatalf("near-identical tallies rejected: stat=%.3f p=%.4f", res.Stat, res.P)
	}
}

func TestChiSquareHomogeneityDifferentDistribution(t *testing.T) {
	a := []int{90, 10, 0, 0}
	b := []int{10, 90, 0, 0}
	res, err := ChiSquareHomogeneity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 {
		t.Fatalf("DF = %d, want 1 (two all-zero categories dropped)", res.DF)
	}
	if res.IndistinguishableAt(DefaultEquivalenceAlpha) {
		t.Fatalf("opposite tallies accepted: stat=%.3f p=%.g", res.Stat, res.P)
	}
}

func TestChiSquareHomogeneityErrors(t *testing.T) {
	if _, err := ChiSquareHomogeneity([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareHomogeneity([]int{0}, []int{0}); err == nil {
		t.Error("zero totals accepted")
	}
	if _, err := ChiSquareHomogeneity([]int{-1, 2}, []int{1, 2}); err == nil {
		t.Error("negative count accepted")
	}
	res, err := ChiSquareHomogeneity([]int{5}, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.DF != 0 {
		t.Errorf("single-category test: P=%v DF=%d, want trivially homogeneous", res.P, res.DF)
	}
}

func TestTwoSampleKSErrors(t *testing.T) {
	if _, err := TwoSampleKS(nil, []float64{1}); err == nil {
		t.Error("empty x accepted")
	}
	if _, err := TwoSampleKS([]float64{1}, nil); err == nil {
		t.Error("empty y accepted")
	}
}

func TestChiSquareUniform(t *testing.T) {
	// A perfectly balanced tally is a perfect fit: stat 0, p = 1.
	res, err := ChiSquareUniform([]int{25, 25, 25, 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.P != 1 || res.DF != 3 {
		t.Fatalf("balanced tally: got %+v, want stat 0, p 1, df 3", res)
	}
	// A heavily skewed tally is rejected at any reasonable level.
	res, err = ChiSquareUniform([]int{97, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndistinguishableAt(DefaultEquivalenceAlpha) {
		t.Fatalf("skewed tally not rejected: %+v", res)
	}
	// Errors: too few categories, negative counts, zero total.
	for _, counts := range [][]int{{10}, {3, -1}, {0, 0}} {
		if _, err := ChiSquareUniform(counts); err == nil {
			t.Fatalf("counts %v accepted", counts)
		}
	}
}

func TestChiSquareGOF(t *testing.T) {
	probs := []float64{0.5, 0.3, 0.2, 0}
	// Counts proportional to probs fit exactly: stat 0, p = 1.
	res, err := ChiSquareGOF([]int{500, 300, 200, 0}, probs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.P != 1 || res.DF != 2 {
		t.Fatalf("exact fit: got %+v, want stat 0, p 1, df 2", res)
	}
	// Swapped frequencies are rejected.
	if res, _ := ChiSquareGOF([]int{200, 300, 500, 0}, probs); res.IndistinguishableAt(DefaultEquivalenceAlpha) {
		t.Fatalf("swapped frequencies not rejected: %+v", res)
	}
	// One observation of a zero-probability category is impossible.
	if res, _ := ChiSquareGOF([]int{500, 300, 199, 1}, probs); res.P != 0 {
		t.Fatalf("impossible category: got %+v, want p 0", res)
	}
	// Rare categories pool: 100 draws of {0.96, 0.02, 0.02} leave one
	// cell of expected 96 and a pooled cell of expected 4, merged into it.
	res, err = ChiSquareGOF([]int{96, 2, 2}, []float64{0.96, 0.02, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 0 || res.P != 1 {
		t.Fatalf("fully pooled: got %+v, want df 0, p 1", res)
	}
	// Errors: length mismatch, negative entries, zero totals.
	for _, tc := range []struct {
		obs   []int
		probs []float64
	}{
		{[]int{1, 2}, []float64{1}},
		{[]int{-1, 2}, []float64{0.5, 0.5}},
		{[]int{1, 2}, []float64{-0.5, 1.5}},
		{[]int{0, 0}, []float64{0.5, 0.5}},
		{[]int{1, 2}, []float64{0, 0}},
	} {
		if _, err := ChiSquareGOF(tc.obs, tc.probs); err == nil {
			t.Fatalf("ChiSquareGOF(%v, %v) accepted", tc.obs, tc.probs)
		}
	}
}
