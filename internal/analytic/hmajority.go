package analytic

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
)

// The h-Majority process function has no closed form for general h.
// Drawing h samples from the color distribution x yields a count vector
// m ~ Mult(h, x); the rule adopts the unique plurality color, breaking ties
// uniformly among the tied plurality colors (for h = 3 this is exactly the
// paper's 3-Majority, and h = 1, 2 reduce to Voter).
//
// Color i wins with a samples when every other color j draws m_j ≤ a, and
// shares the win with the t others that also draw a: its part is
// 1/(1+t) = ∫₀¹ w^t dw. In generating-function form, with
//
//	F_a(y) = Σ_{m<a} (yz)^m/m! + w·(yz)^a/a!,
//
// α_i = h!·Σ_{a=1..h} x_i^a/a!·[z^{h−a}] ∫₀¹ Π_{j≠i} F_a(x_j) dw.
//
// Colors with equal fractions share one factor and one α value, so the
// product runs over the d distinct fractions, each factor raised to its
// multiplicity, every series truncated at z-degree h−a. Each w comes with
// z^a, so the integrand is a polynomial in w of degree W ≤ ⌊(h−a)/a⌋, and
// ⌈(W+1)/2⌉ Gauss–Legendre nodes integrate it exactly. Every sum adds
// non-negative terms, so each entry of α — the tiny ones near consensus
// included — carries a relative error of a few ulps.

var (
	errHMajorityH   = errors.New("analytic: h must be >= 1")
	errEmptySupport = errors.New("analytic: empty support")
	errOutputLength = errors.New("analytic: output length mismatch")
)

// AlphaEvaluator computes the exact h-Majority process function
// repeatedly without allocating in steady state: all scratch lives on the
// receiver and grows in place. A call costs O(k) to group the k entries of
// x by value plus O(d·h³·log h) for the d distinct positive values,
// independent of n. The zero value is ready to use. Not safe for
// concurrent use.
type AlphaEvaluator struct {
	bucket  []int32   // hash table over x's values: group+1, 0 = empty
	group   []int32   // group of each positive entry of x
	val     []float64 // value of each group
	mult    []int     // multiplicity of each group
	term    []float64 // per group: h!·y^a/a! at the current a
	acc     []float64 // per group: Σ_a term·[z^{h−a}]∫₀¹ L_a dw, its α
	rest    []float64 // per group: F_a raised to multiplicity−1
	full    []float64 // per group: F_a raised to its multiplicity
	pre     []float64 // prefix products of full, d+1 series
	suf     []float64 // suffix products of full, d+1 series
	fac     []float64 // one group's F_a
	tmp     []float64 // one product series
	glX     []float64 // Gauss–Legendre nodes on [0, 1], the m-node rule at m(m−1)/2
	glW     []float64 // matching weights
	glRules int       // number of Gauss–Legendre rules in glX
}

// Alpha writes the exact h-Majority process function for the fraction
// vector x into out (len(out) must equal len(x); zero entries of x stay
// zero). It returns an error for h < 1 or an empty support — out is
// untouched then.
//
//consensus:hotpath
func (e *AlphaEvaluator) Alpha(x []float64, h int, out []float64) error {
	if h < 1 {
		return errHMajorityH
	}
	if len(out) != len(x) {
		return errOutputLength
	}
	d := e.groupValues(x)
	if d == 0 {
		return errEmptySupport
	}
	// A series keeps z-degrees 0..h−a ⊆ 0..h−1.
	e.term = growFloatsTo(e.term, d)
	e.acc = growFloatsTo(e.acc, d)
	e.rest = growFloatsTo(e.rest, d*h)
	e.full = growFloatsTo(e.full, d*h)
	e.pre = growFloatsTo(e.pre, (d+1)*h)
	e.suf = growFloatsTo(e.suf, (d+1)*h)
	e.fac = growFloatsTo(e.fac, h)
	e.tmp = growFloatsTo(e.tmp, h)
	hFact := 1.0
	for i := 2; i <= h; i++ {
		hFact *= float64(i)
	}
	for g := 0; g < d; g++ {
		e.term[g] = hFact
		e.acc[g] = 0
	}
	for a := 1; a <= h; a++ {
		deg := h - a
		for g := 0; g < d; g++ {
			e.term[g] *= e.val[g] / float64(a)
		}
		nodes, weights := e.gaussLegendre((deg/a + 2) / 2)
		for q, w := range nodes {
			e.integrate(d, a, deg, h, w, weights[q])
		}
	}
	for i, v := range x {
		if v > 0 {
			out[i] = e.acc[e.group[i]]
		} else {
			out[i] = 0
		}
	}
	return nil
}

// groupValues groups the positive entries of x by value, numbering the
// groups in order of first appearance, and returns their number d. It is
// linear in len(x): an open-addressing table over the values' bits.
func (e *AlphaEvaluator) groupValues(x []float64) int {
	log := bits.Len(uint(len(x))) + 1 // table size 2^log > 2·len(x)
	e.bucket = growInt32sTo(e.bucket, 1<<log)
	clear(e.bucket)
	e.group = growInt32sTo(e.group, len(x))
	e.val = e.val[:0]
	e.mult = e.mult[:0]
	mask := len(e.bucket) - 1
	for i, v := range x {
		if !(v > 0) {
			continue
		}
		s := int((math.Float64bits(v) * 0x9e3779b97f4a7c15) >> (64 - log))
		g := int(e.bucket[s]) - 1
		for g >= 0 && e.val[g] != v {
			s = (s + 1) & mask
			g = int(e.bucket[s]) - 1
		}
		if g < 0 {
			g = len(e.val)
			e.val = append(e.val, v)
			e.mult = append(e.mult, 0)
			e.bucket[s] = int32(g + 1)
		}
		e.mult[g]++
		e.group[i] = int32(g)
	}
	return len(e.val)
}

// integrate adds term·weight·[z^deg] L_a(w) to every group's acc, where
// L_a(w) is the product of the d groups' factors F_a at tie weight w with
// one copy of the group's own factor left out. Series are stored at the
// given stride.
func (e *AlphaEvaluator) integrate(d, a, deg, stride int, w, weight float64) {
	top := min(a, deg)
	fac := e.fac[:deg+1]
	for g := 0; g < d; g++ {
		y := e.val[g]
		fac[0] = 1
		for j := 1; j <= top; j++ {
			fac[j] = fac[j-1] * y / float64(j)
		}
		if a <= deg {
			fac[a] *= w
		}
		rest := series(e.rest, g, stride, deg)
		full := series(e.full, g, stride, deg)
		seriesPow(rest, fac, top, e.mult[g]-1)
		copy(full, rest)
		seriesMulInPlace(full, fac, top)
	}
	// pre[g] = Π_{g'<g} full[g'] and suf[g] = Π_{g'≥g} full[g']: products
	// that leave one group out without dividing (and cancelling).
	unitSeries(series(e.pre, 0, stride, deg))
	for g := 0; g < d; g++ {
		seriesMul(series(e.pre, g+1, stride, deg), series(e.pre, g, stride, deg), series(e.full, g, stride, deg))
	}
	unitSeries(series(e.suf, d, stride, deg))
	for g := d - 1; g >= 0; g-- {
		seriesMul(series(e.suf, g, stride, deg), series(e.full, g, stride, deg), series(e.suf, g+1, stride, deg))
	}
	tmp := e.tmp[:deg+1]
	for g := 0; g < d; g++ {
		seriesMul(tmp, series(e.pre, g, stride, deg), series(e.rest, g, stride, deg))
		suf := series(e.suf, g+1, stride, deg)
		coef := 0.0
		for i, t := range tmp {
			coef += t * suf[deg-i]
		}
		e.acc[g] += e.term[g] * weight * coef
	}
}

// series returns the g-th series of buf, coefficients of z^0..z^deg.
func series(buf []float64, g, stride, deg int) []float64 {
	return buf[g*stride : g*stride+deg+1]
}

func unitSeries(s []float64) {
	clear(s)
	s[0] = 1
}

// seriesMul writes p·q, truncated to len(dst), into dst; dst must not
// alias p or q.
func seriesMul(dst, p, q []float64) {
	for k := range dst {
		s := 0.0
		for i := 0; i <= k; i++ {
			s += p[i] * q[k-i]
		}
		dst[k] = s
	}
}

// seriesMulInPlace multiplies dst by f (f[0] = 1, zero past top),
// truncated to len(dst).
func seriesMulInPlace(dst, f []float64, top int) {
	for k := len(dst) - 1; k > 0; k-- {
		s := dst[k]
		for j := 1; j <= min(k, top); j++ {
			s += f[j] * dst[k-j]
		}
		dst[k] = s
	}
}

// seriesPow writes f^e, truncated to len(dst), into dst (f[0] = 1, zero
// past top). Both branches add non-negative terms only: J.C.P. Miller's
// recurrence p_k = Σ_{j=1..min(k,top)} ((e+1)·j − k)·f_j·p_{k−j} / k, whose
// cost does not depend on e, has non-negative weights once e+1 ≥ deg; for
// smaller e, e repeated multiplications cost no more.
func seriesPow(dst, f []float64, top, e int) {
	deg := len(dst) - 1
	unitSeries(dst)
	if e+1 < deg {
		for ; e > 0; e-- {
			seriesMulInPlace(dst, f, top)
		}
		return
	}
	e1 := float64(e + 1)
	for k := 1; k <= deg; k++ {
		s := 0.0
		for j := 1; j <= min(k, top); j++ {
			s += (e1*float64(j) - float64(k)) * f[j] * dst[k-j]
		}
		dst[k] = s / float64(k)
	}
}

// gaussLegendre returns the m-node Gauss–Legendre rule on [0, 1], which
// integrates polynomials of degree up to 2m−1 exactly, computing and
// keeping the rules up to m on first use.
func (e *AlphaEvaluator) gaussLegendre(m int) (nodes, weights []float64) {
	for e.glRules < m {
		e.glRules++
		off := len(e.glX)
		e.glX = append(e.glX, make([]float64, e.glRules)...)
		e.glW = append(e.glW, make([]float64, e.glRules)...)
		legendreRule(e.glX[off:], e.glW[off:])
	}
	off := m * (m - 1) / 2
	return e.glX[off : off+m], e.glW[off : off+m]
}

// legendreRule fills the m = len(nodes) node Gauss–Legendre rule mapped to
// [0, 1]: Newton's method on the Legendre polynomial P_m from Tricomi's
// initial guesses, weights 1/((1−t²)·P_m'(t)²).
func legendreRule(nodes, weights []float64) {
	m := len(nodes)
	for i := 0; i < (m+1)/2; i++ {
		t := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(m) + 0.5))
		for iter := 0; iter < 100; iter++ {
			p, dp := legendre(m, t)
			dt := p / dp
			t -= dt
			if math.Abs(dt) <= 1e-15 {
				break
			}
		}
		_, dp := legendre(m, t)
		w := 1 / ((1 - t*t) * dp * dp)
		nodes[i], nodes[m-1-i] = (1-t)/2, (1+t)/2
		weights[i], weights[m-1-i] = w, w
	}
}

// legendre returns P_m(t) and its derivative, for |t| < 1.
func legendre(m int, t float64) (p, dp float64) {
	p0, p1 := 1.0, t
	for j := 2; j <= m; j++ {
		p0, p1 = p1, (float64(2*j-1)*t*p1-float64(j-1)*p0)/float64(j)
	}
	return p1, float64(m) * (t*p1 - p0) / (t*t - 1)
}

func growInt32sTo(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growFloatsTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// HMajorityAlphaRat computes the exact h-Majority process function in
// rational arithmetic, for the Appendix B counterexample and other exact
// verifications. x entries must be non-negative and sum to 1 exactly. It
// enumerates all C(h+s−1, s−1) sample-count outcomes over the support size
// s, so it is the oracle for small inputs; AlphaEvaluator computes the same
// law in floating point at any support.
func HMajorityAlphaRat(x []*big.Rat, h int) ([]*big.Rat, error) {
	if h < 1 {
		return nil, errors.New("analytic: h must be >= 1")
	}
	sum := new(big.Rat)
	support := make([]int, 0, len(x))
	for i, v := range x {
		if v.Sign() < 0 {
			return nil, errors.New("analytic: negative probability")
		}
		if v.Sign() > 0 {
			support = append(support, i)
		}
		sum.Add(sum, v)
	}
	if sum.Cmp(big.NewRat(1, 1)) != 0 {
		return nil, errors.New("analytic: probabilities must sum to exactly 1")
	}
	s := len(support)
	if s == 0 {
		return nil, errors.New("analytic: empty support")
	}
	out := make([]*big.Rat, len(x))
	for i := range out {
		out[i] = new(big.Rat)
	}
	counts := make([]int, s)
	factH := new(big.Int).MulRange(1, int64(h))
	var rec func(idx, left int, prob *big.Rat)
	rec = func(idx, left int, prob *big.Rat) {
		if idx == s-1 {
			counts[idx] = left
			p := new(big.Rat).Set(prob)
			p.Mul(p, ratPow(x[support[idx]], left))
			p.Quo(p, ratFromInt(factorialInt(left)))
			p.Mul(p, ratFromInt(factH))
			contributeRat(out, support, counts, p)
			return
		}
		for m := 0; m <= left; m++ {
			counts[idx] = m
			p := new(big.Rat).Set(prob)
			p.Mul(p, ratPow(x[support[idx]], m))
			p.Quo(p, ratFromInt(factorialInt(m)))
			rec(idx+1, left-m, p)
		}
	}
	rec(0, h, big.NewRat(1, 1))
	return out, nil
}

func contributeRat(out []*big.Rat, support, counts []int, p *big.Rat) {
	maxCount := 0
	ties := 0
	for _, m := range counts {
		if m > maxCount {
			maxCount = m
			ties = 1
		} else if m == maxCount {
			ties++
		}
	}
	if maxCount == 0 {
		return
	}
	share := new(big.Rat).Quo(p, big.NewRat(int64(ties), 1))
	for j, m := range counts {
		if m == maxCount {
			out[support[j]].Add(out[support[j]], share)
		}
	}
}

func ratPow(x *big.Rat, m int) *big.Rat {
	out := big.NewRat(1, 1)
	for i := 0; i < m; i++ {
		out.Mul(out, x)
	}
	return out
}

func ratFromInt(i *big.Int) *big.Rat {
	return new(big.Rat).SetInt(i)
}

func factorialInt(m int) *big.Int {
	return new(big.Int).MulRange(1, int64(m))
}
