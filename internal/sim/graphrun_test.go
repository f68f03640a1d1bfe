package sim

import (
	"context"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
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

// TestRunOnGraphCompleteMatchesAgents: on the complete graph the graph and
// agents engines simulate the same process, so reduction-time means agree.
func TestRunOnGraphCompleteMatchesAgents(t *testing.T) {
	const (
		n      = 128
		reps   = 40
		target = 4
	)
	r := rng.New(172)
	g := graph.NewComplete(n)
	start := config.Singleton(n)
	var viaGraph, viaAgents []float64
	for i := 0; i < reps; i++ {
		rg, err := NewRunner(rules.NewThreeMajority(), WithGraph(g), WithRNG(r), WithTargetColors(target)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		viaGraph = append(viaGraph, float64(rg.Rounds))

		ra, err := NewRunner(rules.NewThreeMajority(), WithEngine(EngineAgents), WithRNG(r), WithTargetColors(target)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		viaAgents = append(viaAgents, float64(ra.Rounds))
	}
	mg, ma := stats.Mean(viaGraph), stats.Mean(viaAgents)
	if mg > 1.5*ma+2 || ma > 1.5*mg+2 {
		t.Fatalf("complete-graph engines disagree: %v vs %v", mg, ma)
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
