package expt

import (
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E9 probes Conjecture 1: (h+1)-Majority should be stochastically faster
// than h-Majority. The paper proves it for h ∈ {1, 2, 3} (Voter =
// 1-Majority = 2-Majority is dominated by 3-Majority, Lemma 2) and shows
// in Appendix B that its majorization machinery cannot settle larger h.
// The runs live in scenarios/e09_hierarchy.json (an h sweep from the
// n-color configuration; the replicas expression triples the heavy-tailed
// h ≤ 2 cells); this reducer checks the non-increasing trend.
func init() {
	scenario.RegisterReducer("e9", reduceE9)
}

func reduceE9(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	n := 0
	baseReps := 0
	var means []float64
	for _, cell := range suite.Cells {
		var err error
		if n, err = cellInt(cell, "n"); err != nil {
			return nil, err
		}
		h, err := cellInt(cell, "h")
		if err != nil {
			return nil, err
		}
		if h > 2 {
			baseReps = cell.Replicas
		}
		s := stats.Summarize(sim.Rounds(cell.Groups[0].Results))
		tbl.AddRow(h, s.Mean, s.Std, s.Q95)
		means = append(means, s.Mean)
	}
	monotone := true
	for i := 1; i < len(means); i++ {
		// Allow sampling noise: a later h may exceed the previous mean by
		// a few percent without breaking the trend. The h=1 vs h=2 pair is
		// *equal* in distribution and heavy-tailed, so it gets more room.
		tolerance := 1.10
		if i == 1 {
			tolerance = 1.35
		}
		if means[i] > means[i-1]*tolerance {
			monotone = false
		}
	}
	tbl.AddNote("n = %d, %d replicas per h (3x for h ≤ 2); non-increasing within noise: %v", n, baseReps, monotone)
	tbl.AddNote("h=1 vs h=2 mean ratio %.3f (both are Voter in distribution)", means[0]/means[1])
	return tbl, nil
}
