// Package analytic provides closed-form and exact-arithmetic computations
// from the paper: the process function of Eq. 2, the shared
// expected one-step drift of 2-Choices and 3-Majority (footnote 2), the
// exact general h-Majority process function, the Appendix B
// counterexample (Eq. 24), and the Chernoff-bound quantities of Theorem 5.
package analytic

// ThreeMajorityAlpha writes the 3-Majority process function
// α^(3M)_i(c) = x_i · (1 + x_i − ‖x‖₂²) (Eq. 2) into out and returns it.
func ThreeMajorityAlpha(x []float64, out []float64) []float64 {
	out = ensure(out, len(x))
	l2 := 0.0
	for _, v := range x {
		l2 += v * v
	}
	for i, v := range x {
		out[i] = v * (1 + v - l2)
	}
	return out
}

// ExpectedNextFraction writes the expected fraction of nodes supporting
// each color after one round of either 2-Choices or 3-Majority:
// x_i² + (1 − Σ x_j²)·x_i (footnote 2 — the two processes agree in
// expectation). Note this expression is algebraically identical to Eq. 2.
func ExpectedNextFraction(x []float64, out []float64) []float64 {
	out = ensure(out, len(x))
	l2 := 0.0
	for _, v := range x {
		l2 += v * v
	}
	for i, v := range x {
		out[i] = v*v + (1-l2)*v
	}
	return out
}

func ensure(out []float64, n int) []float64 {
	if out == nil {
		return make([]float64, n)
	}
	if len(out) != n {
		panic("analytic: output length mismatch")
	}
	return out
}
