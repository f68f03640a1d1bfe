package core_test

import (
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/majorize"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

func TestACStepPreservesN(t *testing.T) {
	r := rng.New(81)
	c := config.Balanced(1000, 5)
	alpha := c.Fractions(nil)
	core.ACStep(c, r, alpha)
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestComparablePairsAreComparable(t *testing.T) {
	r := rng.New(82)
	pairs := core.ComparablePairs(500, 8, 40, r)
	if len(pairs) != 40 {
		t.Fatalf("got %d pairs, want 40", len(pairs))
	}
	for i, p := range pairs {
		if !majorize.Ints(p.High.CountsCopy(), p.Low.CountsCopy()) {
			t.Fatalf("pair %d: high %v does not majorize low %v",
				i, p.High.CountsCopy(), p.Low.CountsCopy())
		}
	}
}

func TestComparablePairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.ComparablePairs(10, 1, 5, rng.New(83))
}

// TestLemma2Dominance: 3-Majority dominates Voter (the paper's Lemma 2,
// proven via Eq. 3–5). VerifyDominance must find no violation across many
// comparable pairs.
func TestLemma2Dominance(t *testing.T) {
	r := rng.New(84)
	pairs := core.ComparablePairs(1000, 10, 200, r)
	if v := core.VerifyDominance(rules.NewThreeMajority(), rules.NewVoter(), pairs, 1e-9); v != nil {
		t.Fatalf("Lemma 2 violated: %v", v)
	}
}

// TestVoterSelfDominance: Voter dominates itself (α is the identity, and
// c ≻ c̃ gives α(c) = x ≻ x̃ = α(c̃) directly).
func TestVoterSelfDominance(t *testing.T) {
	r := rng.New(85)
	pairs := core.ComparablePairs(800, 8, 100, r)
	if v := core.VerifyDominance(rules.NewVoter(), rules.NewVoter(), pairs, 1e-9); v != nil {
		t.Fatalf("Voter self-dominance violated: %v", v)
	}
}

// TestVoterDoesNotDominateThreeMajority: the reverse of Lemma 2 must fail —
// Voter's α cannot majorize 3-Majority's on equal configurations with any
// spread, because 3-Majority strictly boosts large colors.
func TestVoterDoesNotDominateThreeMajority(t *testing.T) {
	c, err := config.New([]int{60, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []core.Pair{{High: c.Clone(), Low: c.Clone()}}
	v := core.VerifyDominance(rules.NewVoter(), rules.NewThreeMajority(), pairs, 1e-9)
	if v == nil {
		t.Fatal("expected a violation: Voter should not dominate 3-Majority")
	}
}

// TestAppendixBViolationViaVerifyDominance reproduces Appendix B with the
// dominance checker: 4-Majority does not dominate 3-Majority on the
// counterexample pair.
func TestAppendixBViolationViaVerifyDominance(t *testing.T) {
	// n = 12 scales (1/2, 1/2, 0, 0) and (1/2, 1/6, 1/6, 1/6) to integers.
	high, err := config.New([]int{6, 6, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	low, err := config.New([]int{6, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	fourMaj := rules.NewAC("4-majority-exact", func(c *config.Config, out []float64) []float64 {
		fracs := make([]float64, c.Slots())
		c.Fractions(fracs)
		var e analytic.AlphaEvaluator
		alpha := make([]float64, len(fracs))
		if err := e.Alpha(fracs, 4, alpha); err != nil {
			panic(err)
		}
		if out == nil {
			return alpha
		}
		copy(out, alpha)
		return out
	})
	pairs := []core.Pair{{High: high, Low: low}}
	v := core.VerifyDominance(fourMaj, rules.NewThreeMajority(), pairs, 1e-9)
	if v == nil {
		t.Fatal("Appendix B: expected dominance violation, found none")
	}
	// The failing prefix is the top-1 sum: α^(3M)(low) has max 7/12 > 1/2.
	maxLow := 0.0
	for _, a := range v.AlphaLow {
		if a > maxLow {
			maxLow = a
		}
	}
	if math.Abs(maxLow-7.0/12) > 1e-9 {
		t.Fatalf("max α^(3M) = %v, want 7/12", maxLow)
	}
}

// TestCheckStochasticMajorization: when θ1 ≻ θ2, the sampled multinomials
// must pass the full Schur-convex battery (the Lemma 1 consequence).
func TestCheckStochasticMajorizationHolds(t *testing.T) {
	r := rng.New(86)
	thetaHigh := []float64{0.7, 0.2, 0.1, 0}
	thetaLow := []float64{0.4, 0.3, 0.2, 0.1}
	if !majorize.Floats(thetaHigh, thetaLow, 1e-12) {
		t.Fatal("test setup: thetaHigh must majorize thetaLow")
	}
	checks, ok := core.CheckStochasticMajorization(thetaHigh, thetaLow, 400, 800, r)
	if !ok {
		for _, ck := range checks {
			if !ck.OK {
				t.Errorf("battery %s failed: high %.5f < low %.5f (se %.5f)",
					ck.Func, ck.MeanHigh, ck.MeanLow, ck.StdErr)
			}
		}
		t.Fatal("stochastic majorization check failed")
	}
}

// TestCheckStochasticMajorizationDetectsReversal: with the roles swapped
// the battery must catch the violation (the check has power, not just
// soundness).
func TestCheckStochasticMajorizationDetectsReversal(t *testing.T) {
	r := rng.New(87)
	thetaHigh := []float64{0.9, 0.1, 0, 0}
	thetaLow := []float64{0.25, 0.25, 0.25, 0.25}
	// Deliberately reversed: low as "high".
	_, ok := core.CheckStochasticMajorization(thetaLow, thetaHigh, 400, 800, r)
	if ok {
		t.Fatal("reversed premise should fail the battery")
	}
}

// TestIdenticalThetasPass: equal distributions trivially satisfy the check.
func TestCheckStochasticMajorizationEqual(t *testing.T) {
	r := rng.New(88)
	theta := []float64{0.5, 0.3, 0.2}
	_, ok := core.CheckStochasticMajorization(theta, theta, 300, 600, r)
	if !ok {
		t.Fatal("identical distributions must pass (within the SE cushion)")
	}
}

// TestInterfaceCompliance documents which rules are AC-processes: Voter and
// 3-Majority are; 2-Choices must not be (paper §2.2).
func TestInterfaceCompliance(t *testing.T) {
	var asRule interface{} = rules.NewTwoChoices()
	if _, isAC := asRule.(core.ACProcess); isAC {
		t.Fatal("2-Choices must NOT be an ACProcess: its update depends on own color")
	}
	var voter interface{} = rules.NewVoter()
	if _, isAC := voter.(core.ACProcess); !isAC {
		t.Fatal("Voter must be an ACProcess")
	}
	var threeMaj interface{} = rules.NewThreeMajority()
	if _, isAC := threeMaj.(core.ACProcess); !isAC {
		t.Fatal("3-Majority must be an ACProcess")
	}
}

func TestViolationError(t *testing.T) {
	v := &core.Violation{AlphaHigh: []float64{0.5}, AlphaLow: []float64{0.6}}
	if v.Error() == "" {
		t.Fatal("empty error string")
	}
}
