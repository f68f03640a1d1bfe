package expt

import (
	"fmt"

	"github.com/ignorecomply/consensus/scenario"
)

// E10 exercises the §5 fault-tolerance regime: 3-Majority with
// k = o(n^{1/3}) colors against a dynamic adversary corrupting F nodes per
// round. For small F the process reaches a stable almost-consensus on a
// *valid* color ([BCN+16] tolerates F = O(√(n / (k^{5/2} log n)))); as F
// grows toward n the adversary wins. The runs live in
// scenarios/e10_byzantine.json (a strategy × budget sweep with the
// adversary name drawn from a string axis); this reducer tabulates
// stability, validity and rounds to stabilize.
func init() {
	scenario.RegisterReducer("e10", reduceE10)
}

func reduceE10(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	var n, k, window, reps int
	var epsilon float64
	for _, cell := range suite.Cells {
		var err error
		if n, err = cellInt(cell, "n"); err != nil {
			return nil, err
		}
		if k, err = cellInt(cell, "k"); err != nil {
			return nil, err
		}
		if window, err = cellInt(cell, "window"); err != nil {
			return nil, err
		}
		var ok bool
		if epsilon, ok = cell.Vars["epsilon"]; !ok {
			return nil, fmt.Errorf("expt: cell %d has no binding %q", cell.Index, "epsilon")
		}
		f, err := cellInt(cell, "f")
		if err != nil {
			return nil, err
		}
		name := cell.Strings["adversary"]
		reps = cell.Replicas

		stable, valid := 0, 0
		totalRounds := 0
		for _, res := range cell.Groups[0].Results {
			if res.Stable {
				stable++
				totalRounds += res.Rounds
			}
			if res.WinnerValid {
				valid++
			}
		}
		meanRounds := "-"
		if stable > 0 {
			meanRounds = scenario.FormatFloat(float64(totalRounds) / float64(stable))
		}
		tbl.AddRow(name, f, ratioString(stable, reps), ratioString(valid, reps), meanRounds)
	}
	tbl.AddNote("n = %d, k = %d, ε = %.2f, stability window %d rounds, %d replicas", n, k, epsilon, window, reps)
	return tbl, nil
}
