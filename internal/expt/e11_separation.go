package expt

import (
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E11 is the paper's headline (Theorem 1): 2-Choices and 3-Majority have
// identical expected one-round behavior (E6), yet from unbiased
// configurations with many colors their consensus times separate
// polynomially — Õ(n^{3/4}) vs Ω(n/log n). The runs live in
// scenarios/e11_separation.json (a k sweep at fixed n); this reducer
// reports the round ratio 2-Choices / 3-Majority, which should rise from
// ≈1 toward a polynomial gap as k grows.
func init() {
	scenario.RegisterReducer("e11", reduceE11)
}

func reduceE11(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	n := 0
	reps := 0
	var ratios []float64
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
		m2 := stats.Mean(sim.Rounds(twoC.Results))
		m3 := stats.Mean(sim.Rounds(threeM.Results))
		ratio := m2 / m3
		ratios = append(ratios, ratio)
		reps = cell.Replicas
		tbl.AddRow(k, m2, m3, ratio)
	}
	tbl.AddNote("n = %d, %d replicas per cell; the ratio at k=n over k=2 is %.1fx", n, reps,
		ratios[len(ratios)-1]/ratios[0])
	tbl.AddNote("'ignore' (2-Choices) pays for skipping the mismatch sample exactly when colors are many and bias is absent")
	return tbl, nil
}
