package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// Determinism regressions for the sharded engines.
//
// The reproducibility contract is three-tiered:
//
//  1. WithParallelism(1) is bit-exact against the golden values below,
//     captured from the sequential engine at the last intentional
//     draw-stream change.
//  2. Fixed seed + fixed p is bit-exact across repeated runs, regardless
//     of goroutine scheduling: shard streams are derived deterministically
//     up front and the count merge is ordered.
//  3. Changing p reassigns nodes to streams, so results across different p
//     values are equal in distribution only (crossvalidate_test.go).
//
// Golden regeneration policy (DESIGN.md §3): these pins guard against
// *accidental* stream changes. A PR that changes the draw stream on
// purpose (a sampler rework) regenerates them — but only together with
// the statistical old-vs-new evidence in samplerchange_test.go, whose
// fixture must be recorded from the pre-change engines first. Last
// regenerated for the one-word batched alias draw (PR 3).

// agentsGolden values were captured from the sequential agents engine at
// the PR-3 sampler change (same seeds, default options). Any change to
// these is a break in the p=1 stream contract.
var agentsGolden = []struct {
	name   string
	rule   func() core.Rule
	n, k   int
	seed   uint64
	rounds int
	winner int
	counts []int
}{
	{"voter", func() core.Rule { return rules.NewVoter() }, 128, 8, 7, 173, 5, []int{0, 0, 0, 0, 0, 128, 0, 0}},
	{"3-majority", func() core.Rule { return rules.NewThreeMajority() }, 200, 5, 11, 18, 2, []int{0, 0, 200, 0, 0}},
	{"2-choices", func() core.Rule { return rules.NewTwoChoices() }, 150, 6, 13, 17, 3, []int{0, 0, 0, 150, 0, 0}},
	{"5-majority", func() core.Rule { return rules.NewHMajority(5) }, 100, 4, 17, 8, 0, []int{100, 0, 0, 0}},
}

func TestAgentsSequentialGolden(t *testing.T) {
	for _, tc := range agentsGolden {
		t.Run(tc.name, func(t *testing.T) {
			start := config.Balanced(tc.n, tc.k)
			res, err := NewRunner(tc.rule(), WithEngine(EngineAgents), WithParallelism(1), WithSeed(tc.seed)).
				Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "runner", res, tc.rounds, tc.winner, tc.counts)
			// Without WithParallelism a single-rule runner stays
			// sequential (and therefore bit-exact) on any machine.
			res, err = NewRunner(tc.rule(), WithEngine(EngineAgents), WithSeed(tc.seed)).
				Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "runner-default", res, tc.rounds, tc.winner, tc.counts)
		})
	}
}

// graphGolden pins the p=1 stream of the sparse-topology per-node paths:
// the ring and torus (regular, batched FillIntN(d) neighbor fill), a
// random-regular graph (an explicit Adjacency, also batched) and the star
// (irregular: one IntN(deg) per sample). Interleaved placements (i%k) are
// not the contiguous blocks WithGraph colors from, so these pins place the
// nodes directly.
var graphGolden = []struct {
	name   string
	rule   func() core.Rule
	g      func() graph.Graph
	k      int
	seed   uint64
	rounds int
	winner int
	counts []int
}{
	{"ring/voter", func() core.Rule { return rules.NewVoter() },
		func() graph.Graph { return graph.NewRing(60) }, 4, 23, 500, 3, []int{12, 11, 18, 19}},
	{"torus/3-majority", func() core.Rule { return rules.NewThreeMajority() },
		func() graph.Graph { return graph.NewTorus(8, 8) }, 3, 29, 500, 0, []int{32, 32, 0}},
	{"random-regular/3-majority", func() core.Rule { return rules.NewThreeMajority() },
		func() graph.Graph {
			g, err := graph.NewRandomRegular(60, 3, rng.New(37))
			if err != nil {
				panic(err)
			}
			return g
		}, 4, 41, 180, 2, []int{0, 0, 60, 0}},
	{"star/lazy-voter", func() core.Rule { return rules.NewLazyVoter(0.5) },
		func() graph.Graph { return graph.NewStar(301) }, 5, 43, 15, 2, []int{0, 0, 301, 0, 0}},
}

func TestGraphSequentialGolden(t *testing.T) {
	o, err := buildOptions([]Option{WithParallelism(1), WithMaxRounds(500)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range graphGolden {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			colors := make([]int, g.N())
			for i := range colors {
				colors[i] = i % tc.k
			}
			res, err := runGraphPlaced(tc.rule().(core.NodeRule), g, colors, rng.New(tc.seed), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged != (tc.rounds < 500) {
				t.Fatalf("converged = %v after %d rounds; stream changed", res.Converged, res.Rounds)
			}
			checkGolden(t, tc.name, res, tc.rounds, tc.winner, tc.counts)
		})
	}
}

// runGraphPlaced runs rule on g from the per-vertex slots colors (labels
// 0..k-1) on the sequential graph round, through the shared round loop.
func runGraphPlaced(rule core.NodeRule, g graph.Graph, colors []int, r *rng.RNG, o options) (*Result, error) {
	var counts []int
	for _, s := range colors {
		for s >= len(counts) {
			counts = append(counts, 0)
		}
		counts[s]++
	}
	start, err := config.New(counts)
	if err != nil {
		return nil, err
	}
	o.graph = g
	st, err := newAgentsState(rule, nil, start, r, o)
	if err != nil {
		return nil, err
	}
	copy(st.nodes, colors)
	return runLoop(st.c, r, o, func(round int) int {
		st.step(round)
		return 1
	}, func() *config.Config { return st.c }, func() []int { return st.nodes })
}

// TestAgentsAdversarialGolden pins the p=1 stream through the §5
// corrupt/reconcile path (node reassignment consumes the main stream).
func TestAgentsAdversarialGolden(t *testing.T) {
	res, err := NewRunner(rules.NewThreeMajority(),
		WithEngine(EngineAgents),
		WithParallelism(1),
		WithAdversary(&adversary.RandomNoise{F: 3}, 0.1, 10),
		WithMaxRounds(5000),
		WithSeed(31)).Run(context.Background(), config.Balanced(120, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || res.Corrupted != 29 {
		t.Errorf("stable=%v corrupted=%d, want stable with 29 corruptions", res.Stable, res.Corrupted)
	}
	checkGolden(t, "agents+noise", res, 22, 3, []int{0, 0, 0, 120})
}

func checkGolden(t *testing.T, name string, res *Result, rounds, winner int, counts []int) {
	t.Helper()
	if res.Rounds != rounds || res.WinnerLabel != winner {
		t.Errorf("%s: rounds=%d winner=%d, want %d/%d (sequential stream changed)",
			name, res.Rounds, res.WinnerLabel, rounds, winner)
	}
	if got := res.Final.CountsCopy(); !reflect.DeepEqual(got, counts) {
		t.Errorf("%s: final counts %v, want %v", name, got, counts)
	}
}

// TestShardedFixedSeedFixedPIsBitExact: for any fixed (seed, p) the sharded
// engines reproduce bit-for-bit across repeated runs — goroutine scheduling
// must not be observable.
func TestShardedFixedSeedFixedPIsBitExact(t *testing.T) {
	start := config.Balanced(300, 6)
	rr, err := graph.NewRandomRegular(300, 3, rng.New(98))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		for name, opts := range map[string][]Option{
			"agents": {WithEngine(EngineAgents)},
			"graph":  {WithGraph(rr), WithMaxRounds(20_000)},
		} {
			rn := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
				append([]Option{WithParallelism(p), WithSeed(99), WithTrace(1)}, opts...)...)
			run := func() *Result {
				res, err := rn.Run(context.Background(), start)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel {
				t.Fatalf("%s p=%d: non-deterministic: %d/%d vs %d/%d",
					name, p, a.Rounds, a.WinnerLabel, b.Rounds, b.WinnerLabel)
			}
			if !reflect.DeepEqual(a.Final.CountsCopy(), b.Final.CountsCopy()) {
				t.Fatalf("%s p=%d: final counts diverge: %v vs %v",
					name, p, a.Final.CountsCopy(), b.Final.CountsCopy())
			}
			if !reflect.DeepEqual(a.Trace, b.Trace) {
				t.Fatalf("%s p=%d: round traces diverge", name, p)
			}
		}
	}
}

// perNodeOnly hides a rule's concrete type, so rules.ChunkUpdater gives
// the kernel the generic loop over its Update.
type perNodeOnly struct{ *rules.ThreeMajority }

// TestChunkUpdateMatchesPerNodeRuns: 3-Majority's chunk form runs the same
// rounds as its per-node Update loop, bit for bit — every round's counts,
// the final configuration and the winner — at p = 1 and p = 2, with
// uniform pulls (agents), a regular topology (batched neighbor fill) and an
// irregular one (chunks of one node).
func TestChunkUpdateMatchesPerNodeRuns(t *testing.T) {
	rr, err := graph.NewRandomRegular(400, 3, rng.New(98))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		for name, opts := range map[string][]Option{
			"agents": {WithEngine(EngineAgents)},
			"graph":  {WithGraph(rr), WithMaxRounds(5000)},
			"star":   {WithGraph(graph.NewStar(400)), WithMaxRounds(5000)},
		} {
			for seed := uint64(1); seed <= 3; seed++ {
				run := func(f core.Factory) *Result {
					res, err := NewFactoryRunner(f,
						append([]Option{WithParallelism(p), WithSeed(seed), WithTrace(1)}, opts...)...).
						Run(context.Background(), config.Balanced(400, 8))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				chunk := run(func() core.Rule { return rules.NewThreeMajority() })
				each := run(func() core.Rule { return perNodeOnly{rules.NewThreeMajority()} })
				if chunk.Rounds != each.Rounds || chunk.WinnerLabel != each.WinnerLabel ||
					!reflect.DeepEqual(chunk.Final.CountsCopy(), each.Final.CountsCopy()) {
					t.Fatalf("%s p=%d seed %d: chunk form %d rounds, winner %d, %v; per-node loop %d, %d, %v",
						name, p, seed, chunk.Rounds, chunk.WinnerLabel, chunk.Final.CountsCopy(),
						each.Rounds, each.WinnerLabel, each.Final.CountsCopy())
				}
				if !reflect.DeepEqual(chunk.Trace, each.Trace) {
					t.Fatalf("%s p=%d seed %d: round traces diverge", name, p, seed)
				}
			}
		}
	}
}

// TestParallelismValidation: negative parallelism is rejected; zero means
// auto and one shard on a one-node population is fine.
func TestParallelismValidation(t *testing.T) {
	agents := func(p int) *Runner {
		return NewRunner(rules.NewVoter(), WithEngine(EngineAgents), WithSeed(1), WithParallelism(p))
	}
	if _, err := agents(-1).Run(context.Background(), config.Balanced(10, 2)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := agents(0).Run(context.Background(), config.Balanced(10, 2)); err != nil {
		t.Fatalf("auto parallelism rejected: %v", err)
	}
	// More shards than nodes: capped at n, must still be correct.
	res, err := agents(64).Run(context.Background(), config.Balanced(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Final.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
