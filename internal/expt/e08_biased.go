package expt

import (
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E8 reproduces the §1.1 biased regime: with an initial bias of
// Ω(√(n log n)), both 2-Choices and 3-Majority exploit the drift and reach
// consensus in O(k·log n) rounds — their times are asymptotically the
// same, in sharp contrast to the unbiased many-color regime of E11. The
// runs live in scenarios/e08_biased.json (a k sweep at fixed n with
// derived bias ⌈√(n ln n)⌉); this reducer reports the round ratio, which
// should hover near 1, and how often 2-Choices converges to the leader.
func init() {
	scenario.RegisterReducer("e8", reduceE8)
}

func reduceE8(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	n := 0
	reps := 0
	for _, cell := range suite.Cells {
		var err error
		if n, err = cellInt(cell, "n"); err != nil {
			return nil, err
		}
		k, err := cellInt(cell, "k")
		if err != nil {
			return nil, err
		}
		twoC, err := groupByID(cell, "2-choices")
		if err != nil {
			return nil, err
		}
		threeM, err := groupByID(cell, "3-majority")
		if err != nil {
			return nil, err
		}
		start := twoC.Start
		leaderLabel := start.Label(0)
		m2 := stats.Mean(sim.Rounds(twoC.Results))
		m3 := stats.Mean(sim.Rounds(threeM.Results))
		winners := 0
		for _, res := range twoC.Results {
			if res.WinnerLabel == leaderLabel {
				winners++
			}
		}
		reps = cell.Replicas
		tbl.AddRow(k, start.Bias(), m2, m3, m2/m3, ratioString(winners, reps))
	}
	tbl.AddNote("n = %d, %d replicas; [BGKMT16]: 2-Choices converges to the majority color at this bias", n, reps)
	return tbl, nil
}
