package sim

import (
	"fmt"
	"slices"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// newBenchAgentsState builds a steady agents-round stepper outside runLoop,
// so benchmarks and allocation tests can drive isolated rounds.
func newBenchAgentsState(tb testing.TB, n, k, p int) *agentsState {
	tb.Helper()
	o, err := buildOptions([]Option{WithParallelism(p)})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := newAgentsState(rules.NewThreeMajority(), nil, config.Balanced(n, k), rng.New(1), o)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkRoundAgentsParallel sweeps the shard count over one agents
// round at n=100k, k=8, 3-Majority: the steady-state hot path of the
// per-node engines and its parallel speedup curve.
func BenchmarkRoundAgentsParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			st := newBenchAgentsState(b, 100_000, 8, p)
			defer st.close()
			benchRounds(b, st)
		})
	}
}

// benchRounds times b.N rounds of st from its current state, reporting
// ns/node-round. Whenever the population reaches consensus it is reset to
// that state with the timer stopped, so every timed round is a round of a
// live run, with its ties, and never a consensus round that only copies
// one color.
func benchRounds(b *testing.B, st *agentsState) {
	startCounts := slices.Clone(st.c.CountsView())
	startNodes := slices.Clone(st.nodes)
	st.step(0) // warm the scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.c.IsConsensus() {
			b.StopTimer()
			copy(st.c.CountsView(), startCounts)
			copy(st.nodes, startNodes)
			b.StartTimer()
		}
		st.step(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st.nodes)), "ns/node-round")
}

// newBenchGraphState builds a steady graph-round stepper on g from a
// balanced 8-color start, outside runLoop.
func newBenchGraphState(tb testing.TB, g graph.Graph, p int) *agentsState {
	tb.Helper()
	o, err := buildOptions([]Option{WithParallelism(p), WithGraph(g)})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := newAgentsState(rules.NewThreeMajority(), nil, config.Balanced(g.N(), 8), rng.New(1), o)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// benchGraphs are the sparse topologies of the graph-round benchmark and
// allocation test: the torus (regular, batched neighbor fill), a random
// 3-regular graph (an explicit adjacency) and the star (irregular), each
// on side² vertices.
func benchGraphs(tb testing.TB, side int) map[string]graph.Graph {
	tb.Helper()
	n := side * side
	rr, err := graph.NewRandomRegular(n, 3, rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]graph.Graph{
		"torus":          graph.NewTorus(side, side),
		"random-regular": rr,
		"star":           graph.NewStar(n),
	}
}

// BenchmarkRoundGraph times one 3-Majority graph round at n = 10⁴, p = 1,
// on each sparse topology: the neighbor fill and resolve the graph
// engine adds to the agents round.
func BenchmarkRoundGraph(b *testing.B) {
	for _, name := range []string{"torus", "random-regular", "star"} {
		b.Run(name, func(b *testing.B) {
			st := newBenchGraphState(b, benchGraphs(b, 100)[name], 1)
			defer st.close()
			benchRounds(b, st)
		})
	}
}

// TestAgentsRoundZeroSteadyStateAllocs: after warm-up, an agents round must
// not allocate — the alias table, sample buffers and shard tallies are all
// reused in place. Guards the perf fix that stopped rebuilding
// rng.NewAliasCounts every round. Each measured step runs
// agentsShardRound over every shard (the //consensus:hotpath round body).
func TestAgentsRoundZeroSteadyStateAllocs(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			st := newBenchAgentsState(t, 4096, 8, p)
			defer st.close()
			for i := 0; i < 5; i++ {
				st.step(i) // reach steady state
			}
			if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
				t.Errorf("agents round allocates %.2f times per round at p=%d, want 0", avg, p)
			}
		})
	}
}

// TestAgentsHeteroRoundZeroSteadyStateAllocs: same contract for the
// heterogeneous behavior path — each measured step runs
// agentsShardRoundHetero (the //consensus:hotpath round body that
// dispatches per-group rules, stubborn holds and join rounds) over every
// shard, and must stay allocation-free once warm.
func TestAgentsHeteroRoundZeroSteadyStateAllocs(t *testing.T) {
	voter := func() core.Rule { return rules.NewVoter() }
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			o, err := buildOptions([]Option{
				WithParallelism(p),
				WithNodeBehaviors(blockAssign(2048, 1024, 512, 512),
					[]NodeBehavior{{}, {Factory: voter}, {Stubborn: true}, {JoinRound: 1 << 20}}),
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := newAgentsState(rules.NewThreeMajority(), nil, config.Balanced(4096, 8), rng.New(1), o)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			for i := 0; i < 5; i++ {
				st.step(i)
			}
			if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
				t.Errorf("hetero agents round allocates %.2f times per round at p=%d, want 0", avg, p)
			}
		})
	}
}

// TestGraphRoundZeroSteadyStateAllocs: same contract for graph runs on
// every sparse-topology path of agentsShardRound — the batched regular
// fill resolved by neighbors.resolve (torus, random-regular) and the
// irregular per-sample neighbors.draw (star).
func TestGraphRoundZeroSteadyStateAllocs(t *testing.T) {
	graphs := benchGraphs(t, 48)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			for name, g := range graphs {
				t.Run(name, func(t *testing.T) {
					st := newBenchGraphState(t, g, p)
					defer st.close()
					for i := 0; i < 5; i++ {
						st.step(i)
					}
					if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
						t.Errorf("graph round on %s allocates %.2f times per round at p=%d, want 0", name, avg, p)
					}
				})
			}
		})
	}
}
