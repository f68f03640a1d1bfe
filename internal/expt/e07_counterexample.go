package expt

import (
	"context"
	"math/big"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E7 reproduces the Appendix B counterexample (Eq. 24) in exact rational
// arithmetic and confirms it by simulation: for x = (1/2, 1/6, 1/6, 1/6)
// and x̃ = (1/2, 1/2, 0, 0) with x̃ ≻ x, 4-Majority leaves x̃ unchanged in
// expectation while 3-Majority pushes x's leading color to exactly 7/12 —
// so α^(4M)(x̃) does not majorize α^(3M)(x), and Lemma 1 cannot prove the
// h-Majority hierarchy (Conjecture 1). This is a custom-kind scenario
// (scenarios/e07_counterexample.json): the heart of the experiment is
// exact big.Rat arithmetic plus a sequential one-round mean, so the
// adapter computes both itself.
func init() {
	scenario.RegisterAdapter("e7", adaptE7)
}

func adaptE7(ctx context.Context, s *scenario.Scenario, p scenario.Params) (*scenario.Table, error) {
	ce, err := analytic.AppendixB()
	if err != nil {
		return nil, err
	}
	tbl := s.NewTable()
	f := func(r *big.Rat) float64 { v, _ := r.Float64(); return v }
	tbl.AddRow("x̃ ≻ x (premise)", "-", "-", ce.XTildeMajorizesX)
	tbl.AddRow("α^(3M)(x)₁ (Eq. 24)", ce.Alpha3M[0].RatString(), f(ce.Alpha3M[0]),
		ce.Alpha3M[0].Cmp(big.NewRat(7, 12)) == 0)
	tbl.AddRow("α^(4M)(x̃)₁", ce.Alpha4M[0].RatString(), f(ce.Alpha4M[0]),
		ce.Alpha4M[0].Cmp(big.NewRat(1, 2)) == 0)
	tbl.AddRow("α^(4M)(x̃) ≻ α^(3M)(x) (conclusion)", "-", "-", ce.DominanceHolds)

	// Finite-n confirmation: one 3-Majority round from n·x, mean fraction
	// of color 1 should approach 7/12.
	n, err := s.ParamInt("n", p.Scale)
	if err != nil {
		return nil, err
	}
	reps, err := s.ParamInt("reps", p.Scale)
	if err != nil {
		return nil, err
	}
	cfg, err := config.New([]int{n / 2, n / 6, n / 6, n / 6})
	if err != nil {
		return nil, err
	}
	base := rng.New(p.Seed)
	var fractions []float64
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cfg.Clone()
		rules.NewThreeMajority().Step(c, base)
		fractions = append(fractions, float64(c.Count(0))/float64(n))
	}
	st := stats.Summarize(fractions)
	tbl.AddRow("simulated mean fraction (n="+scenario.FormatFloat(float64(n))+")",
		"-", st.Mean, st.Mean > 0.5)
	tbl.AddNote("simulated mean %.5f ± %.5f vs exact 7/12 = %.5f",
		st.Mean, stats.CI95HalfWidth(fractions), 7.0/12)
	tbl.AddNote("conclusion must be 'no' in row 4: this is the counterexample")
	return tbl, nil
}
