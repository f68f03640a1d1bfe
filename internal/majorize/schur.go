package majorize

import "math"

// TestFunc is a named Schur-convex test function φ: R^d → R. By definition
// x ≻ y implies φ(x) ≥ φ(y), so a battery of such functions provides a
// falsifiable empirical test of stochastic majorization (Definition 3):
// X ≻_st Y requires E[φ(X)] ≤ E[φ(Y)] for every Schur-convex φ.
type TestFunc struct {
	Name string
	F    func(x []float64) float64
}

// Battery returns a diverse set of Schur-convex test functions:
//
//   - top-j partial sums of the sorted vector, for several j (these generate
//     the majorization preorder itself — see the footnote to Theorem 3);
//   - power sums Σ x_i^p for p ≥ 1 (convex-symmetric, hence Schur-convex);
//   - the maximum entry;
//   - negative Shannon entropy.
//
// The top-j fractions are parameterized by the vector length at call time.
func Battery() []TestFunc {
	battery := []TestFunc{
		{Name: "max", F: maxEntry},
		{Name: "sum_sq", F: powerSum(2)},
		{Name: "sum_cube", F: powerSum(3)},
		{Name: "sum_p1.5", F: powerSum(1.5)},
		{Name: "neg_entropy", F: negEntropy},
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75} {
		battery = append(battery, TestFunc{
			Name: "topfrac_" + formatFrac(frac),
			F:    topFraction(frac),
		})
	}
	return battery
}

func maxEntry(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

func powerSum(p float64) func([]float64) float64 {
	return func(x []float64) float64 {
		sum := 0.0
		for _, v := range x {
			if v > 0 {
				sum += math.Pow(v, p)
			}
		}
		return sum
	}
}

func negEntropy(x []float64) float64 {
	total := 0.0
	for _, v := range x {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, v := range x {
		if v <= 0 {
			continue
		}
		q := v / total
		h += q * math.Log(q)
	}
	return h
}

func topFraction(frac float64) func([]float64) float64 {
	return func(x []float64) float64 {
		j := int(math.Ceil(frac * float64(len(x))))
		if j < 1 {
			j = 1
		}
		s := sortedDescFloats(x)
		if j > len(s) {
			j = len(s)
		}
		sum := 0.0
		for i := 0; i < j; i++ {
			sum += s[i]
		}
		return sum
	}
}

func formatFrac(f float64) string {
	switch f {
	case 0.1:
		return "10"
	case 0.25:
		return "25"
	case 0.5:
		return "50"
	case 0.75:
		return "75"
	}
	return "x"
}
