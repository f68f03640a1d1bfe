package expt

import (
	"context"
	"fmt"

	"github.com/ignorecomply/consensus/internal/coalesce"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/scenario"
)

// E5 reproduces Lemma 4 and Figure 1: for any graph there is a
// shared-randomness coupling under which the Voter process run backward
// over the pull arrows has exactly as many remaining opinions as the
// coalescing random walks have remaining walks, at every horizon:
// T^k_V = T^k_C. This is a custom-kind scenario
// (scenarios/e05_duality.json): the measurement is an exact coupling
// identity, not a round-loop run, so the adapter builds the arrow table
// Y_t(u) on several topologies itself and verifies the identity at every
// horizon.
func init() {
	scenario.RegisterAdapter("e5", adaptE5)
}

func adaptE5(ctx context.Context, s *scenario.Scenario, p scenario.Params) (*scenario.Table, error) {
	n, err := s.ParamInt("n", p.Scale)
	if err != nil {
		return nil, err
	}
	horizon, err := s.ParamInt("horizon", p.Scale)
	if err != nil {
		return nil, err
	}
	trials, err := s.ParamInt("trials", p.Scale)
	if err != nil {
		return nil, err
	}
	base := rng.New(p.Seed)

	type namedGraph struct {
		name string
		g    graph.Graph
	}
	graphs := []namedGraph{
		{name: "complete", g: graph.NewComplete(n)},
		{name: "ring", g: graph.NewRing(n)},
		{name: "torus", g: graph.NewTorus(8, n/8)},
		{name: "star", g: graph.NewStar(n)},
	}
	// The claim is "on any graph": every listed topology must actually be
	// checked, so a failed construction is an error, not a silent skip.
	rr, err := graph.NewRandomRegular(n, 3, base)
	if err != nil {
		return nil, fmt.Errorf("expt: e05 random-3-regular graph at n=%d: %w", n, err)
	}
	graphs = append(graphs, namedGraph{name: "random-3-regular", g: rr})

	tbl := s.NewTable()
	allHold := true
	for _, ng := range graphs {
		holds := true
		lastWalks := -1
		for trial := 0; trial < trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tb, err := coalesce.NewTable(ng.g, horizon, base)
			if err != nil {
				return nil, err
			}
			mismatch, err := tb.Verify(horizon)
			if err != nil {
				return nil, err
			}
			if mismatch != nil {
				holds = false
				allHold = false
				tbl.AddNote("%s trial %d: mismatch at T=%d (walks %d vs opinions %d)",
					ng.name, trial, mismatch.T, mismatch.Walks, mismatch.Opinions)
			}
			w, err := tb.WalksAfter(horizon)
			if err != nil {
				return nil, err
			}
			lastWalks = w
		}
		tbl.AddRow(ng.name, ng.g.N(), trials, horizon, lastWalks, holds)
	}
	tbl.AddNote("identity holds on all graphs/trials: %v", allHold)
	if !allHold {
		return tbl, fmt.Errorf("expt: Lemma 4 identity violated")
	}
	return tbl, nil
}
