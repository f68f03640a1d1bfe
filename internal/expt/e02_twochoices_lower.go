package expt

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E2 reproduces Theorem 5: from the n-color configuration, with high
// probability no color of 2-Choices exceeds support ℓ' = max{2ℓ, γ log n}
// for n/(γℓ') rounds, making the total consensus time Ω(n / log n). The
// runs live in scenarios/e02_twochoices_lower.json: per n, an "escape"
// group stopping at the max-support-exceeds-ℓ' predicate and a
// "consensus" group running to agreement. The reducer compares escape
// times against the theorem's round floor t₀ = n/(γℓ') and fits the
// consensus log-log slope, which should be near 1 (almost linear), in
// contrast to E1's ~0.75 for 3-Majority.
func init() {
	scenario.RegisterReducer("e2", reduceE2)
}

func reduceE2(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	gamma, err := suite.Scenario.ParamFloat("gamma", suite.Params.Scale)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, cell := range suite.Cells {
		n, err := cellInt(cell, "n")
		if err != nil {
			return nil, err
		}
		params := analytic.NewTheorem5Params(n, gamma, 1)
		// The spec's derived "lprime" drives the escape stop predicate;
		// the theorem quantities in this reducer must describe the same
		// threshold, or the table silently reports bounds the runs never
		// used.
		if lp := int(cell.Vars["lprime"]); lp != params.LPrime {
			return nil, fmt.Errorf("expt: e02 spec lprime %d disagrees with analytic ℓ' %d at n=%d — keep the derived expression and NewTheorem5Params in sync", lp, params.LPrime, n)
		}
		escapeGroup, err := groupByID(cell, "escape")
		if err != nil {
			return nil, err
		}
		fullGroup, err := groupByID(cell, "consensus")
		if err != nil {
			return nil, err
		}
		escStats := stats.Summarize(sim.Rounds(escapeGroup.Results))
		held := 0
		for _, res := range escapeGroup.Results {
			if res.Rounds >= params.T0 {
				held++
			}
		}
		conStats := stats.Summarize(sim.Rounds(fullGroup.Results))
		tbl.AddRow(n, params.LPrime, params.T0, escStats.Mean,
			ratioString(held, len(escapeGroup.Results)), conStats.Mean)
		xs = append(xs, float64(n))
		ys = append(ys, conStats.Mean)
	}
	fit, err := stats.LogLogFit(xs, ys)
	if err != nil {
		return nil, err
	}
	tbl.AddNote("consensus log-log slope %.3f (R²=%.3f); Theorem 5 forces near-linear growth (≈1), vs ≈0.75 for 3-Majority in E1",
		fit.Slope, fit.R2)
	tbl.AddNote("γ = %.0f (the proof needs a large constant; the shape is what matters at these n)", gamma)
	return tbl, nil
}
