package expt

import (
	"math"

	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E3 reproduces Theorem 2 + Lemma 2: because 3-Majority dominates Voter,
// the time 3-Majority needs to reduce to κ colors is stochastically
// dominated by Voter's: T^κ_{3M} ≤st T^κ_V for every κ. The runs live in
// scenarios/e03_dominance.json (both processes from the same n-color
// configuration, T^κ recorded on a κ grid); this reducer verifies the
// ECDF dominance — the 3-Majority ECDF must lie on or above Voter's
// everywhere, up to sampling slack.
func init() {
	scenario.RegisterReducer("e3", reduceE3)
}

func reduceE3(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	cell := suite.Cells[0]
	n, err := cellInt(cell, "n")
	if err != nil {
		return nil, err
	}
	voter, err := groupByID(cell, "voter")
	if err != nil {
		return nil, err
	}
	threeM, err := groupByID(cell, "3-majority")
	if err != nil {
		return nil, err
	}
	kappas := voter.Spec.ColorTimes
	reps := cell.Replicas

	// Sampling slack for the ECDF comparison: a 95% KS-style band.
	slack := 1.36 * math.Sqrt(2/float64(reps))
	allDominated := true
	for _, kappa := range kappas {
		t3, ok3 := sim.ColorTimes(threeM.Results, kappa)
		tv, okV := sim.ColorTimes(voter.Results, kappa)
		if !ok3 || !okV {
			tbl.AddRow(kappa, "-", "-", "-", "unreached")
			continue
		}
		e3m, err := stats.NewECDF(t3)
		if err != nil {
			return nil, err
		}
		ev, err := stats.NewECDF(tv)
		if err != nil {
			return nil, err
		}
		dominated := e3m.DominatedBy(ev, slack)
		if !dominated {
			allDominated = false
		}
		tbl.AddRow(kappa, stats.Mean(t3), stats.Mean(tv), stats.KSDistance(e3m, ev), dominated)
	}
	tbl.AddNote("n = %d, %d replicas per process, ECDF slack %.3f", n, reps, slack)
	tbl.AddNote("all κ dominated: %v (Theorem 2 consequence of Lemma 2)", allDominated)
	return tbl, nil
}
