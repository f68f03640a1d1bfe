package expt

import (
	"math"

	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E1 reproduces Theorem 4: starting from the hardest (n-color)
// configuration, 3-Majority reaches consensus w.h.p. in
// O(n^{3/4} log^{7/8} n) rounds — the paper's unconditional sublinear
// upper bound. The runs live in scenarios/e01_threemajority_upper.json (a
// 3-Majority replica sweep over n from the singleton configuration); this
// reducer reports consensus-round statistics plus the rounds normalized by
// n^{3/4} log^{7/8} n, which should stay bounded, and fits the log-log
// slope across the sweep, which must come out well below 1.
func init() {
	scenario.RegisterReducer("e1", reduceE1)
}

func reduceE1(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	var xs, ys []float64
	for _, cell := range suite.Cells {
		n, err := cellInt(cell, "n")
		if err != nil {
			return nil, err
		}
		results := cell.Groups[0].Results
		s := stats.Summarize(sim.Rounds(results))
		norm := s.Mean / (math.Pow(float64(n), 0.75) * math.Pow(math.Log(float64(n)), 7.0/8))
		tbl.AddRow(n, len(results), s.Mean, s.Std, s.Q95, norm)
		xs = append(xs, float64(n))
		ys = append(ys, s.Mean)
	}
	fit, err := stats.LogLogFit(xs, ys)
	if err != nil {
		return nil, err
	}
	tbl.AddNote("log-log slope %.3f (R²=%.3f); Theorem 4 predicts exponent ≤ 3/4 + o(1), i.e. clearly sublinear (< 1)",
		fit.Slope, fit.R2)
	return tbl, nil
}
