package analytic

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"github.com/ignorecomply/consensus/internal/rng"
)

// hmajorityAlpha computes the exact h-Majority process function for the
// fraction vector x with a fresh AlphaEvaluator, into a new slice.
func hmajorityAlpha(x []float64, h int) ([]float64, error) {
	var e AlphaEvaluator
	out := make([]float64, len(x))
	if err := e.Alpha(x, h, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestVoterAlphaIsIdentity: the Voter process function (Eq. 1) is the
// identity, and 1-Majority is the Voter process.
func TestVoterAlphaIsIdentity(t *testing.T) {
	x := []float64{0.2, 0.3, 0.5}
	got, err := hmajorityAlpha(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("1-Majority α = %v, want %v", got, x)
		}
	}
}

func TestThreeMajorityAlphaClosedForm(t *testing.T) {
	// The Appendix B value: x = (1/2, 1/6, 1/6, 1/6), α_1 = 7/12.
	x := []float64{0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6}
	got := ThreeMajorityAlpha(x, nil)
	if math.Abs(got[0]-7.0/12) > 1e-12 {
		t.Fatalf("α_1 = %v, want 7/12", got[0])
	}
	// α must remain a probability vector.
	if !isProbVector(got, 1e-9) {
		t.Fatalf("α = %v is not a probability vector", got)
	}
}

func TestExpectedNextFractionMatchesEq2(t *testing.T) {
	// Footnote 2: x_i² + (1-Σx²)x_i equals Eq. 2 algebraically.
	x := []float64{0.4, 0.35, 0.25}
	a := ThreeMajorityAlpha(x, nil)
	e := ExpectedNextFraction(x, nil)
	for i := range x {
		if math.Abs(a[i]-e[i]) > 1e-12 {
			t.Fatalf("Eq.2 %v vs footnote-2 %v at %d", a[i], e[i], i)
		}
	}
}

func TestTwoChoicesKeepProbability(t *testing.T) {
	if got := twoChoicesKeepProbability([]float64{0.5, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("keep prob = %v, want 0.5", got)
	}
	if got := twoChoicesKeepProbability([]float64{1}); got != 0 {
		t.Fatalf("consensus keep prob = %v, want 0", got)
	}
}

func TestHMajorityAlphaH1H2AreVoter(t *testing.T) {
	var e AlphaEvaluator
	for _, x := range [][]float64{{0.5, 0.3, 0.2}, wideVector(300)} {
		got := make([]float64, len(x))
		for _, h := range []int{1, 2} {
			if err := e.Alpha(x, h, got); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(got[i]-x[i]) > 1e-12 {
					t.Fatalf("h=%d slot %d: α = %v, want Voter %v", h, i, got[i], x[i])
				}
				// h = 1 is the identity bit for bit: the batch law draws
				// from x itself, as Voter does.
				if h == 1 && got[i] != x[i] {
					t.Fatalf("h=1 slot %d: α = %v, want exactly %v", i, got[i], x[i])
				}
			}
		}
	}
}

// wideVector returns a fraction vector over k colors with counts 1..k,
// every value distinct.
func wideVector(k int) []float64 {
	x := make([]float64, k)
	n := float64(k * (k + 1) / 2)
	for i := range x {
		x[i] = float64(i+1) / n
	}
	return x
}

func TestHMajorityAlphaH3MatchesEq2(t *testing.T) {
	var e AlphaEvaluator
	vectors := [][]float64{
		{0.5, 0.3, 0.2},
		{0.25, 0.25, 0.25, 0.25},
		{0.9, 0.1},
		{0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6},
		wideVector(200),
	}
	for _, x := range vectors {
		got := make([]float64, len(x))
		if err := e.Alpha(x, 3, got); err != nil {
			t.Fatal(err)
		}
		want := ThreeMajorityAlpha(x, nil)
		for i := range x {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("k=%d slot %d: evaluator %v vs Eq.2 %v", len(x), i, got[i], want[i])
			}
		}
	}
}

func TestHMajorityAlphaIsProbVector(t *testing.T) {
	x := []float64{0.4, 0.3, 0.2, 0.1}
	for h := 1; h <= 6; h++ {
		got, err := hmajorityAlpha(x, h)
		if err != nil {
			t.Fatal(err)
		}
		if !isProbVector(got, 1e-9) {
			t.Fatalf("h=%d: α = %v not a probability vector", h, got)
		}
	}
}

func TestHMajorityAlphaConsensusFixedPoint(t *testing.T) {
	x := []float64{0, 1, 0}
	for h := 1; h <= 5; h++ {
		got, err := hmajorityAlpha(x, h)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != 1 || got[0] != 0 || got[2] != 0 {
			t.Fatalf("h=%d: consensus not a fixed point: %v", h, got)
		}
	}
}

func TestHMajorityAlphaErrors(t *testing.T) {
	if _, err := hmajorityAlpha([]float64{1}, 0); err == nil {
		t.Error("expected error: h = 0")
	}
	if _, err := hmajorityAlpha([]float64{0, 0}, 3); err == nil {
		t.Error("expected error: empty support")
	}
	// No support is too wide: 6-Majority over 4000 colors (C(4005, 6)
	// sample outcomes) evaluates to the uniform fixed point.
	wide := make([]float64, 4000)
	for i := range wide {
		wide[i] = 1.0 / 4000
	}
	got, err := hmajorityAlpha(wide, 6)
	if err != nil {
		t.Fatalf("wide support: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-wide[i]) > 1e-12*wide[i] {
			t.Fatalf("wide support slot %d: α = %v, want %v", i, got[i], wide[i])
		}
	}
}

func TestHMajorityAlphaRatMatchesFloat(t *testing.T) {
	xr := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3), big.NewRat(1, 6)}
	xf := []float64{0.5, 1.0 / 3, 1.0 / 6}
	for h := 1; h <= 4; h++ {
		gr, err := HMajorityAlphaRat(xr, h)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := hmajorityAlpha(xf, h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xf {
			rv, _ := gr[i].Float64()
			if math.Abs(rv-gf[i]) > 1e-9 {
				t.Fatalf("h=%d slot %d: rational %v vs float %v", h, i, rv, gf[i])
			}
		}
	}
}

func TestHMajorityAlphaRatErrors(t *testing.T) {
	if _, err := HMajorityAlphaRat([]*big.Rat{big.NewRat(1, 2)}, 3); err == nil {
		t.Error("expected error: sum != 1")
	}
	if _, err := HMajorityAlphaRat([]*big.Rat{big.NewRat(-1, 2), big.NewRat(3, 2)}, 3); err == nil {
		t.Error("expected error: negative entry")
	}
}

func TestAppendixB(t *testing.T) {
	ce, err := AppendixB()
	if err != nil {
		t.Fatal(err)
	}
	// Premise: x̃ ≻ x.
	if !ce.XTildeMajorizesX {
		t.Error("premise failed: x̃ should majorize x")
	}
	// Eq. 24: the exact expected fraction adopting color 1 is 7/12.
	want := big.NewRat(7, 12)
	if ce.Alpha3M[0].Cmp(want) != 0 {
		t.Errorf("α^(3M)(x)_1 = %v, want exactly 7/12", ce.Alpha3M[0])
	}
	// Symmetry: α^(4M)(x̃) = x̃.
	half := big.NewRat(1, 2)
	if ce.Alpha4M[0].Cmp(half) != 0 || ce.Alpha4M[1].Cmp(half) != 0 {
		t.Errorf("α^(4M)(x̃) = %v, want (1/2, 1/2, 0, 0)", ce.Alpha4M)
	}
	if ce.Alpha4M[2].Sign() != 0 || ce.Alpha4M[3].Sign() != 0 {
		t.Errorf("α^(4M)(x̃) has mass on extinct colors: %v", ce.Alpha4M)
	}
	// The counterexample: dominance fails.
	if ce.DominanceHolds {
		t.Error("Appendix B counterexample failed: dominance should NOT hold")
	}
}

func TestChernoffUpperTail(t *testing.T) {
	if got := ChernoffUpperTail(0, 1); got != 1 {
		t.Errorf("vacuous mu: %v", got)
	}
	if got := ChernoffUpperTail(30, 1); math.Abs(got-math.Exp(-10)) > 1e-12 {
		t.Errorf("delta=1: %v, want e^-10", got)
	}
	if got := ChernoffUpperTail(30, 2); math.Abs(got-math.Exp(-20)) > 1e-12 {
		t.Errorf("delta=2: %v, want e^-20", got)
	}
	// Monotone decreasing in delta.
	if ChernoffUpperTail(10, 0.5) <= ChernoffUpperTail(10, 1) {
		t.Error("bound should decrease with delta")
	}
}

func TestNewTheorem5Params(t *testing.T) {
	p := NewTheorem5Params(100000, 20, 1)
	wantLP := int(math.Ceil(20 * math.Log(100000)))
	if p.LPrime != wantLP {
		t.Errorf("LPrime = %d, want %d", p.LPrime, wantLP)
	}
	if p.T0 != int(100000/(20*float64(wantLP))) {
		t.Errorf("T0 = %d", p.T0)
	}
	// With large ℓ the 2ℓ branch dominates.
	p2 := NewTheorem5Params(1000, 2, 500)
	if p2.LPrime != 1000 {
		t.Errorf("LPrime = %d, want 2ℓ = 1000", p2.LPrime)
	}
}

func TestEscapeProbabilityBoundSmall(t *testing.T) {
	// For large n and γ = 18 (the proof's threshold), the bound must be
	// far below 1 — the theorem's content.
	p := NewTheorem5Params(1_000_000, 18, 1)
	if got := p.EscapeProbabilityBound(); got > 1e-3 {
		t.Fatalf("escape bound = %v, want << 1", got)
	}
}

// Property: for random distributions, h-Majority α is always a probability
// vector, preserves zeros, and for h=3 matches Eq. 2.
func TestQuickHMajorityConsistency(t *testing.T) {
	prop := func(w1, w2, w3, w4 uint8) bool {
		total := float64(w1) + float64(w2) + float64(w3) + float64(w4)
		if total == 0 {
			return true
		}
		x := []float64{float64(w1) / total, float64(w2) / total, float64(w3) / total, float64(w4) / total}
		a, err := hmajorityAlpha(x, 3)
		if err != nil {
			return false
		}
		if !isProbVector(a, 1e-9) {
			return false
		}
		want := ThreeMajorityAlpha(x, nil)
		for i := range x {
			if math.Abs(a[i]-want[i]) > 1e-9 {
				return false
			}
			if x[i] == 0 && a[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAlphaEvaluatorMatchesHMajorityAlpha: a reused evaluator and a fresh
// one per call (hmajorityAlpha) are the same computation.
func TestAlphaEvaluatorMatchesHMajorityAlpha(t *testing.T) {
	var e AlphaEvaluator
	for _, x := range [][]float64{
		{0.5, 0.3, 0.2},
		{0.25, 0, 0.25, 0.5},
		{1},
		{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125},
	} {
		for _, h := range []int{1, 3, 5} {
			want, err := hmajorityAlpha(x, h)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(x))
			// Twice through the same evaluator: scratch reuse must not
			// leak state between calls.
			for pass := 0; pass < 2; pass++ {
				if err := e.Alpha(x, h, got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						t.Fatalf("h=%d pass %d slot %d: evaluator %.15f, wrapper %.15f", h, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAlphaEvaluatorZeroAllocs: after the first call sizes the scratch,
// evaluating the process function must not allocate — the count-based
// h-Majority batch round depends on it.
func TestAlphaEvaluatorZeroAllocs(t *testing.T) {
	var e AlphaEvaluator
	x := []float64{0.3, 0.1, 0.2, 0.15, 0.05, 0.08, 0.07, 0.05}
	out := make([]float64, len(x))
	if err := e.Alpha(x, 5, out); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := e.Alpha(x, 5, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AlphaEvaluator.Alpha allocates %.2f times per call, want 0", avg)
	}
}

// TestAlphaEvaluatorErrors mirrors the wrapper's error contract.
func TestAlphaEvaluatorErrors(t *testing.T) {
	var e AlphaEvaluator
	out := make([]float64, 2)
	if err := e.Alpha([]float64{0.5, 0.5}, 0, out); err == nil {
		t.Error("h = 0 accepted")
	}
	if err := e.Alpha([]float64{0, 0}, 3, out); err == nil {
		t.Error("empty support accepted")
	}
	if err := e.Alpha([]float64{0.5, 0.5}, 3, make([]float64, 3)); err == nil {
		t.Error("output length mismatch accepted")
	}
}

// TestAlphaEvaluatorMatchesRationalOracle: the floating-point evaluator
// against the exact rational enumeration, entry by entry at relative error
// 1e-12, for h = 1..8 on random, near-consensus (one color above 1−10⁻⁶),
// all-equal and all-distinct count vectors.
func TestAlphaEvaluatorMatchesRationalOracle(t *testing.T) {
	r := rng.New(71)
	random := make([]int, 6)
	for i := range random {
		random[i] = 1 + r.IntN(50)
	}
	cases := map[string][]int{
		"random":         random,
		"near-consensus": {9_999_992, 1, 2, 3, 1, 1},
		"all-equal":      {5, 5, 5, 5, 5, 5, 5},
		"all-distinct":   {1, 2, 3, 4, 5, 6},
		"with-zeros":     {3, 0, 3, 1, 0, 2},
	}
	var e AlphaEvaluator
	for _, name := range []string{"random", "near-consensus", "all-equal", "all-distinct", "with-zeros"} {
		counts := cases[name]
		n := 0
		for _, c := range counts {
			n += c
		}
		xr := make([]*big.Rat, len(counts))
		xf := make([]float64, len(counts))
		for i, c := range counts {
			xr[i] = big.NewRat(int64(c), int64(n))
			xf[i] = float64(c) / float64(n)
		}
		got := make([]float64, len(counts))
		for h := 1; h <= 8; h++ {
			want, err := HMajorityAlphaRat(xr, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Alpha(xf, h, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				w, _ := want[i].Float64()
				if w == 0 {
					if got[i] != 0 {
						t.Errorf("%s h=%d slot %d: α = %g, want 0", name, h, i, got[i])
					}
					continue
				}
				if rel := math.Abs(got[i]-w) / w; rel > 1e-12 {
					t.Errorf("%s h=%d slot %d: α = %.17g, exact %.17g (relative error %.2g)", name, h, i, got[i], w, rel)
				}
			}
		}
	}
}

// TestGaussLegendreExact: the m-node rule integrates w^t over [0, 1]
// exactly for every t ≤ 2m−1, the degree bound the tie integral relies on.
func TestGaussLegendreExact(t *testing.T) {
	var e AlphaEvaluator
	for m := 1; m <= 12; m++ {
		nodes, weights := e.gaussLegendre(m)
		if len(nodes) != m || len(weights) != m {
			t.Fatalf("m=%d: %d nodes, %d weights", m, len(nodes), len(weights))
		}
		for deg := 0; deg <= 2*m-1; deg++ {
			got := 0.0
			for q, w := range nodes {
				got += weights[q] * math.Pow(w, float64(deg))
			}
			if want := 1 / float64(deg+1); math.Abs(got-want) > 1e-14 {
				t.Errorf("m=%d: ∫w^%d = %.17g, want %.17g", m, deg, got, want)
			}
		}
	}
}

// isProbVector reports whether p is entry-wise non-negative and sums to 1
// within tol.
func isProbVector(p []float64, tol float64) bool {
	sum := 0.0
	for _, v := range p {
		if v < -tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

// twoChoicesKeepProbability is the probability that a node ignores its
// samples and keeps its color under 2-Choices: 1 − ‖x‖₂².
func twoChoicesKeepProbability(x []float64) float64 {
	l2 := 0.0
	for _, v := range x {
		l2 += v * v
	}
	return 1 - l2
}
