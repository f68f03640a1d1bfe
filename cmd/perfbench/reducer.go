package main

import (
	"sync"

	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/scenario"
)

// runFacts are the numbers of one executed run that the correctness
// checks and the per-layer metrics read.
type runFacts struct {
	n      int
	sum    int // Σ final counts
	rounds int
	// exact and skipped split rounds on the hybrid engine; every round of
	// every other engine is exact.
	exact, skipped, stretches int
	hybrid                    bool
	messages                  int64
	// lossless marks a cluster run without loss or partitions, whose
	// message total is fixed at 2·n·h·rounds; h is the rule's samples per
	// node per round.
	lossless bool
	h        int
}

// captured holds the facts of each executed suite, keyed by scenario
// name, until the runner collects them.
var captured = struct {
	sync.Mutex
	m map[string][]runFacts
}{m: map[string][]runFacts{}}

func init() { scenario.RegisterReducer(captureReducer, captureReduce) }

// captureReduce records every run's facts and reduces the suite to one
// row per cell and group: replicas, converged replicas and mean rounds.
func captureReduce(suite *scenario.SuiteResult) (*scenario.Table, error) {
	tbl := suite.Scenario.NewTable()
	tbl.Columns = []string{"n", "group", "replicas", "converged", "mean rounds"}
	var facts []runFacts
	for _, cell := range suite.Cells {
		for _, g := range cell.Groups {
			lossless := g.Spec.Engine == scenario.EngineCluster &&
				(g.Spec.Network == nil || (g.Spec.Network.Loss == 0 && len(g.Spec.Network.Partitions) == 0))
			h := 0
			if lossless {
				var err error
				if h, err = ruleSamples(g.Spec.Rule); err != nil {
					return nil, err
				}
			}
			converged, rounds := 0, 0
			for _, r := range g.Results {
				f := runFacts{n: g.Spec.N, rounds: r.Rounds, exact: r.Rounds, messages: r.Messages, lossless: lossless, h: h}
				for _, c := range r.Final.CountsView() {
					f.sum += c
				}
				if ff := r.FastForward; ff != nil {
					f.hybrid = true
					f.exact, f.skipped, f.stretches = ff.ExactRounds, ff.SkippedRounds, len(ff.Stretches)
				}
				facts = append(facts, f)
				rounds += r.Rounds
				if r.Converged {
					converged++
				}
			}
			tbl.AddRow(g.Spec.N, g.ID, len(g.Results), converged, float64(rounds)/float64(len(g.Results)))
		}
	}
	captured.Lock()
	captured.m[suite.Scenario.Name] = facts
	captured.Unlock()
	return tbl, nil
}

// takeFacts removes and returns the facts captured for a scenario.
func takeFacts(name string) ([]runFacts, bool) {
	captured.Lock()
	defer captured.Unlock()
	f, ok := captured.m[name]
	delete(captured.m, name)
	return f, ok
}

// ruleSamples is the rule's per-node sample count per round (the h of the
// cluster message law).
func ruleSamples(r scenario.ResolvedRule) (int, error) {
	factory, err := rules.Spec{Name: r.Name, H: r.H, Beta: r.Beta}.Factory()
	if err != nil {
		return 0, err
	}
	if s, ok := factory().(interface{ Samples() int }); ok {
		return s.Samples(), nil
	}
	return 0, nil
}
