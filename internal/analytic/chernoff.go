package analytic

import "math"

// Chernoff-bound and Theorem 5 helper quantities. The lower-bound proof
// (Appendix A.8) works with ℓ' = max{2ℓ, γ log n} and shows that no color
// exceeds ℓ' for t₀ = n/(γℓ') rounds w.h.p., via a Chernoff bound on the
// dominating process P(t) with per-node success probability p = (ℓ'/n)².

// ChernoffUpperTail bounds P(X >= (1+delta)·mu) for a sum of independent
// 0/1 variables with mean mu, using the [MU05, Thm 4.4] forms:
// exp(−mu·delta²/3) for 0 < delta <= 1 and exp(−mu·delta/3) for delta > 1.
func ChernoffUpperTail(mu, delta float64) float64 {
	if mu <= 0 || delta <= 0 {
		return 1
	}
	if delta <= 1 {
		return math.Exp(-mu * delta * delta / 3)
	}
	return math.Exp(-mu * delta / 3)
}

// Theorem5Params bundles the quantities of the 2-Choices lower bound.
type Theorem5Params struct {
	N      int     // number of nodes
	Gamma  float64 // the "sufficiently large constant" γ
	L      int     // ℓ = max initial support
	LPrime int     // ℓ' = max{2ℓ, ⌈γ log n⌉}
	T0     int     // t₀ = ⌊n / (γ ℓ')⌋, the round budget of the theorem
	P      float64 // p = (ℓ'/n)², the per-node domination probability
}

// NewTheorem5Params computes ℓ', t₀ and p for the given n, γ and initial
// max support ℓ. It panics on non-positive arguments (programmer error).
func NewTheorem5Params(n int, gamma float64, l int) Theorem5Params {
	if n <= 0 || gamma <= 0 || l <= 0 {
		panic("analytic: Theorem5Params requires positive arguments")
	}
	lp := 2 * l
	if g := int(math.Ceil(gamma * math.Log(float64(n)))); g > lp {
		lp = g
	}
	t0 := int(float64(n) / (gamma * float64(lp)))
	frac := float64(lp) / float64(n)
	return Theorem5Params{
		N:      n,
		Gamma:  gamma,
		L:      l,
		LPrime: lp,
		T0:     t0,
		P:      frac * frac,
	}
}

// EscapeProbabilityBound returns the Appendix A.8 bound (Eq. 21–23) on the
// probability that some color's support exceeds ℓ' within t₀ rounds:
// n · P(B >= ℓ' − ℓ) with B ~ Bin(t₀·n, p), bounded via Chernoff.
//
//lint:testhelper a Theorem 5 quantity that only a test computes; no E-table reports it
func (p Theorem5Params) EscapeProbabilityBound() float64 {
	mu := float64(p.T0) * float64(p.N) * p.P
	target := float64(p.LPrime - p.L)
	if target <= mu {
		return 1 // the bound is vacuous in this regime
	}
	delta := target/mu - 1
	return float64(p.N) * ChernoffUpperTail(mu, delta)
}
