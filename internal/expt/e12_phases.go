package expt

import (
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
	"github.com/ignorecomply/consensus/scenario"
)

// E12 instruments the two-phase structure of Theorem 4's proof: phase 1
// takes 3-Majority from up to n colors down to κ* = n^{1/4}·log^{1/8} n
// colors (bounded by Voter via the Lemma 2 coupling), and phase 2 finishes
// from κ* colors via [BCN+16, Theorem 3.1]. The runs live in
// scenarios/e12_phases.json (κ* is a derived per-cell value feeding the
// T^κ metrics); this reducer reports both phase lengths for 3-Majority
// and Voter's phase-1 time, checking that 3-Majority's phase 1 is
// (stochastically) below Voter's.
func init() {
	scenario.RegisterReducer("e12", reduceE12)
}

func reduceE12(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	reps := 0
	for _, cell := range suite.Cells {
		n, err := cellInt(cell, "n")
		if err != nil {
			return nil, err
		}
		kStar, err := cellInt(cell, "kstar")
		if err != nil {
			return nil, err
		}
		threeM, err := groupByID(cell, "3-majority")
		if err != nil {
			return nil, err
		}
		voter, err := groupByID(cell, "voter")
		if err != nil {
			return nil, err
		}
		p13, _ := sim.ColorTimes(threeM.Results, kStar)
		p1v, _ := sim.ColorTimes(voter.Results, kStar)
		var phase2 []float64
		for _, r := range threeM.Results {
			t1, ok1 := r.ColorTimes[1]
			tk, okk := r.ColorTimes[kStar]
			if ok1 && okk {
				phase2 = append(phase2, float64(t1-tk))
			}
		}
		m13 := stats.Mean(p13)
		m1v := stats.Mean(p1v)
		reps = cell.Replicas
		tbl.AddRow(n, kStar, m13, stats.Mean(phase2), m1v, m13 <= m1v*1.05)
	}
	tbl.AddNote("%d replicas per n; κ* = ⌈n^{1/4}·ln^{1/8} n⌉ as in the Theorem 4 proof", reps)
	return tbl, nil
}
