package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
)

// Note the graph choices: synchronous Voter can never fully converge on a
// *bipartite* graph from distinct colors — the dual coalescing walks flip
// parity deterministically each step, so walks in different classes never
// meet and each class coalesces to its own original color (see
// TestBipartiteVoterObstruction). Hence odd ring and odd-by-odd torus.
func TestRunOnGraphVoterConsensus(t *testing.T) {
	r := rng.New(171)
	for name, g := range map[string]graph.Graph{
		"complete":  graph.NewComplete(64),
		"odd-ring":  graph.NewRing(33),
		"odd-torus": graph.NewTorus(3, 5),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := NewRunner(rules.NewVoter(), WithGraph(g), WithRNG(r), WithMaxRounds(1_000_000)).
				Run(context.Background(), config.Singleton(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || !res.Final.IsConsensus() {
				t.Fatalf("voter on %s did not converge", name)
			}
			if err := res.Final.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBipartiteVoterObstruction documents why [BGKMT16] needs laziness and
// the paper's complete-graph analysis does not: on a bipartite graph the
// synchronous Voter's two parity classes evolve independently (the dual
// walks never cross parity), so from distinct colors it stalls at exactly
// 2 opinions forever — while LazyVoter breaks the parity lock and reaches
// consensus.
func TestBipartiteVoterObstruction(t *testing.T) {
	const n = 16 // even ring: bipartite
	r := rng.New(175)
	g := graph.NewRing(n)

	stuck, err := NewRunner(rules.NewVoter(), WithGraph(g), WithRNG(r), WithMaxRounds(20_000)).
		Run(context.Background(), config.Singleton(n))
	if err != nil {
		t.Fatal(err)
	}
	if stuck.Converged {
		t.Fatal("synchronous voter must not reach consensus on a bipartite graph")
	}
	if got := stuck.Final.Remaining(); got != 2 {
		t.Fatalf("expected exactly 2 opinions (one per parity class), got %d", got)
	}

	lazy, err := NewRunner(rules.NewLazyVoter(0.5), WithGraph(g), WithRNG(r), WithMaxRounds(1_000_000)).
		Run(context.Background(), config.Singleton(n))
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Converged {
		t.Fatal("lazy voter should break the parity lock and converge")
	}
}

// TestGraphCompleteRunsAgentsKernel: the complete graph has self-loops, so
// a uniform neighbor pull is a uniform node pull and the graph engine
// runs it on the agents kernel. At the same seed and shard count the two
// engines give the same run — rounds, winner, final counts and trace —
// for 3-Majority and for Voter under an injecting adversary (which grows
// the slot space mid-run).
func TestGraphCompleteRunsAgentsKernel(t *testing.T) {
	voterFactory := func() core.Rule { return rules.NewVoter() }
	cases := []struct {
		name    string
		factory core.Factory
		start   *config.Config
		opts    []Option
	}{
		{name: "3-majority", factory: threeMajorityFactory, start: config.Balanced(300, 6)},
		{name: "voter/inject-invalid", factory: voterFactory, start: config.Balanced(120, 3),
			opts: []Option{WithAdversary(&adversary.InjectInvalid{F: 1}, 0.05, 8), WithMaxRounds(20_000)}},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				rn := NewFactoryRunner(tc.factory, append([]Option{WithParallelism(p), WithSeed(78), WithTrace(1)}, tc.opts...)...)
				agents, err := rn.With(WithEngine(EngineAgents)).Run(context.Background(), tc.start)
				if err != nil {
					t.Fatal(err)
				}
				g, err := rn.With(WithGraph(graph.NewComplete(tc.start.N()))).Run(context.Background(), tc.start)
				if err != nil {
					t.Fatal(err)
				}
				if g.Rounds != agents.Rounds || g.WinnerLabel != agents.WinnerLabel ||
					!reflect.DeepEqual(g.Final.CountsCopy(), agents.Final.CountsCopy()) {
					t.Fatalf("graph rounds %d, winner %d, final %v; agents rounds %d, winner %d, final %v",
						g.Rounds, g.WinnerLabel, g.Final.CountsCopy(),
						agents.Rounds, agents.WinnerLabel, agents.Final.CountsCopy())
				}
				if len(g.Trace) == 0 || !reflect.DeepEqual(g.Trace, agents.Trace) {
					t.Fatalf("graph and agents traces differ (%d vs %d points)", len(g.Trace), len(agents.Trace))
				}
			})
		}
	}
}

// TestRingSlowerThanComplete: Voter consensus on the (odd, hence
// non-bipartite) ring takes far longer than on the complete graph at equal
// n — the conductance effect the general-graph bounds in §1.1 capture.
func TestRingSlowerThanComplete(t *testing.T) {
	const (
		n    = 49
		reps = 15
	)
	r := rng.New(173)
	mean := func(g graph.Graph) float64 {
		var times []float64
		for i := 0; i < reps; i++ {
			res, err := NewRunner(rules.NewVoter(), WithGraph(g), WithRNG(r), WithMaxRounds(10_000_000)).
				Run(context.Background(), config.Singleton(n))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("run did not converge within budget")
			}
			times = append(times, float64(res.Rounds))
		}
		return stats.Mean(times)
	}
	ring := mean(graph.NewRing(n))
	complete := mean(graph.NewComplete(n))
	if ring < 3*complete {
		t.Fatalf("ring (%v) should be much slower than complete (%v)", ring, complete)
	}
}

func TestRunOnGraphErrors(t *testing.T) {
	ctx := context.Background()
	g := graph.NewComplete(4)
	if _, err := NewRunner(nil, WithGraph(g)).Run(ctx, config.Singleton(4)); err == nil ||
		!strings.Contains(err.Error(), "no rule") {
		t.Errorf("nil rule: err = %v, want the runner's no-rule error", err)
	}
	if _, err := NewRunner(rules.NewVoter(), WithGraph(g)).Run(ctx, config.Singleton(3)); err == nil ||
		!strings.Contains(err.Error(), "4 vertices for 3 nodes") {
		t.Errorf("size mismatch: err = %v, want the graph/start size error", err)
	}
}
