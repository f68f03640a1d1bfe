package expt

import (
	"math"

	"github.com/ignorecomply/consensus/internal/drift"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E4 reproduces Lemma 3 and its drift analysis (Eq. 18–19): Voter reduces
// the number of colors from n to κ in O((n/κ)·log n) rounds w.h.p., and in
// expectation within the variable-drift bound E[T^κ] ≤ 20n/κ derived via
// the coalescing-random-walk duality. The runs live in
// scenarios/e04_voter_reduction.json; this reducer compares measured mean
// reduction times against both the drift bound and the (n/κ)·ln n
// w.h.p. scale.
func init() {
	scenario.RegisterReducer("e4", reduceE4)
}

func reduceE4(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	ok := true
	for _, cell := range suite.Cells {
		n, err := cellInt(cell, "n")
		if err != nil {
			return nil, err
		}
		group := cell.Groups[0]
		for _, kappa := range group.Spec.ColorTimes {
			times, all := sim.ColorTimes(group.Results, kappa)
			if !all {
				tbl.AddRow(n, kappa, "-", "-", "-", "-", "unreached")
				ok = false
				continue
			}
			s := stats.Summarize(times)
			bound := drift.CoalescenceBound(n, kappa)
			whp := float64(n) / float64(kappa) * math.Log(float64(n))
			within := s.Mean <= bound
			if !within {
				ok = false
			}
			tbl.AddRow(n, kappa, s.Mean, s.Q95, bound, whp, within)
		}
	}
	tbl.AddNote("%d replicas per n; all means within the drift bound: %v", suite.Cells[0].Replicas, ok)
	return tbl, nil
}
