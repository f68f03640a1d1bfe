package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
)

// Cross-engine validation over full runs: the batch law and the per-node
// agent engine must agree not only per round (tested elsewhere) but in the
// distributions they induce over whole trajectories — here, the time to
// reduce to a color target and the winner distribution.
//
// The sharded engines (WithParallelism > 1) are validated the same way
// against their sequential counterparts: sharding reassigns nodes to
// derived random streams, so equality is distributional, not bitwise, and
// is asserted with the internal/stats equivalence tests at
// stats.DefaultEquivalenceAlpha per comparison. All runs are seeded, so
// the suite is deterministic: it cannot flake, only regress.

func TestCrossEngineReductionTimesAgree(t *testing.T) {
	const (
		n      = 256
		target = 4
		reps   = 60
	)
	start := config.Singleton(n)
	r := rng.New(151)

	var batch, agents []float64
	for i := 0; i < reps; i++ {
		rb, err := NewRunner(rules.NewThreeMajority(), WithRNG(r), WithTargetColors(target)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, float64(rb.Rounds))
		ra, err := NewRunner(rules.NewThreeMajority(), WithEngine(EngineAgents), WithRNG(r), WithTargetColors(target)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, float64(ra.Rounds))
	}
	mb, ma := stats.Mean(batch), stats.Mean(agents)
	se := math.Sqrt((stats.Summarize(batch).Var + stats.Summarize(agents).Var) / reps)
	if math.Abs(mb-ma) > 4*se+0.5 {
		t.Fatalf("batch mean %.2f vs agent mean %.2f (se %.2f): engines disagree", mb, ma, se)
	}
	// The distributions should also be close in KS distance.
	eb, err := stats.NewECDF(batch)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := stats.NewECDF(agents)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.KSDistance(eb, ea); d > 0.35 {
		t.Fatalf("KS distance %.3f between engine trajectories", d)
	}
}

// TestCrossEngineWinnerUniform: from a balanced 4-color start, both
// engines must elect each color with probability ~1/4 (symmetry).
func TestCrossEngineWinnerUniform(t *testing.T) {
	const (
		n    = 200
		k    = 4
		reps = 120
	)
	start := config.Balanced(n, k)
	r := rng.New(152)

	check := func(name string, run func() (int, error)) {
		wins := make([]int, k)
		for i := 0; i < reps; i++ {
			w, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if w < 0 || w >= k {
				t.Fatalf("%s: winner label %d out of range", name, w)
			}
			wins[w]++
		}
		for c, count := range wins {
			frac := float64(count) / reps
			// 4 sigma around 1/4 with binomial noise.
			sigma := math.Sqrt(0.25 * 0.75 / reps)
			if math.Abs(frac-0.25) > 4*sigma {
				t.Errorf("%s: color %d won %.3f of runs, want ~0.25", name, c, frac)
			}
		}
	}
	check("batch", func() (int, error) {
		res, err := NewRunner(rules.NewVoter(), WithRNG(r)).Run(context.Background(), start)
		if err != nil {
			return 0, err
		}
		return res.WinnerLabel, nil
	})
	check("agents", func() (int, error) {
		res, err := NewRunner(rules.NewVoter(), WithEngine(EngineAgents), WithRNG(r)).
			Run(context.Background(), start)
		if err != nil {
			return 0, err
		}
		return res.WinnerLabel, nil
	})
}

// shardedTimes collects consensus-time samples (rounds to the stopping
// target) from reps seeded runs of the given runner template.
func shardedTimes(t *testing.T, rn *Runner, start *config.Config, reps int, seed uint64) []float64 {
	t.Helper()
	times := make([]float64, reps)
	for i := 0; i < reps; i++ {
		res, err := rn.With(WithSeed(seed+uint64(i))).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = float64(res.Rounds)
	}
	return times
}

func assertIndistinguishable(t *testing.T, name string, seq, par []float64) {
	t.Helper()
	res, err := stats.TwoSampleKS(seq, par)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("%s: sharded and sequential consensus-time distributions differ: D=%.3f p=%.2g (n=%d,%d)",
			name, res.D, res.P, res.Nx, res.Ny)
	}
}

// TestShardedAgentsMatchesSequential: the sharded agents engine must induce
// the same consensus-time distribution as the sequential engine, for every
// shard count.
func TestShardedAgentsMatchesSequential(t *testing.T) {
	const (
		n    = 256
		k    = 8
		reps = 80
	)
	start := config.Balanced(n, k)
	rn := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
		WithEngine(EngineAgents))
	seq := shardedTimes(t, rn.With(WithParallelism(1)), start, reps, 9000)
	for _, p := range []int{2, 4, 8} {
		par := shardedTimes(t, rn.With(WithParallelism(p)), start, reps, 9100+uint64(p)*100)
		assertIndistinguishable(t, fmt.Sprintf("agents p=%d", p), seq, par)
	}
}

// TestShardedGraphMatchesSequential: same check on the graph engine on a
// sparse topology (a random 3-regular graph), whose sharded round samples
// neighbors concurrently from the immutable previous node-state array.
func TestShardedGraphMatchesSequential(t *testing.T) {
	const (
		n    = 192
		k    = 6
		reps = 80
	)
	start := config.Balanced(n, k)
	g, err := graph.NewRandomRegular(n, 3, rng.New(95))
	if err != nil {
		t.Fatal(err)
	}
	rn := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
		WithGraph(g), WithMaxRounds(20_000))
	seq := shardedTimes(t, rn.With(WithParallelism(1)), start, reps, 9500)
	for _, p := range []int{2, 4, 8} {
		par := shardedTimes(t, rn.With(WithParallelism(p)), start, reps, 9600+uint64(p)*100)
		assertIndistinguishable(t, fmt.Sprintf("graph p=%d", p), seq, par)
	}
}

// TestShardedAgentsUnderAdversaryMatchesSequential: the §5 regime exercises
// the corrupt/reconcile path between sharded rounds — the
// rounds-to-stability distribution must still match the sequential engine.
func TestShardedAgentsUnderAdversaryMatchesSequential(t *testing.T) {
	const (
		n    = 200
		k    = 4
		reps = 70
	)
	start := config.Balanced(n, k)
	rn := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
		WithEngine(EngineAgents),
		WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
		WithMaxRounds(5000))
	seq := shardedTimes(t, rn.With(WithParallelism(1)), start, reps, 9800)
	for _, p := range []int{2, 4} {
		par := shardedTimes(t, rn.With(WithParallelism(p)), start, reps, 9850+uint64(p)*25)
		assertIndistinguishable(t, fmt.Sprintf("agents+adversary p=%d", p), seq, par)
	}
}

// TestShardedWinnerDistributionMatches: beyond timing, the sharded engine
// must elect the same winner distribution; from a balanced start each color
// must win equally often (chi-square homogeneity between p=1 and p=4).
func TestShardedWinnerDistributionMatches(t *testing.T) {
	const (
		n    = 128
		k    = 4
		reps = 120
	)
	start := config.Balanced(n, k)
	rn := NewFactoryRunner(func() core.Rule { return rules.NewVoter() },
		WithEngine(EngineAgents))
	tally := func(p int, seed uint64) []int {
		wins := make([]int, k)
		for i := 0; i < reps; i++ {
			res, err := rn.With(WithParallelism(p), WithSeed(seed+uint64(i))).Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			wins[res.WinnerLabel]++
		}
		return wins
	}
	seq := tally(1, 7000)
	par := tally(4, 7300)
	res, err := stats.ChiSquareHomogeneity(seq, par)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("winner distributions differ: seq=%v par=%v stat=%.2f p=%.2g", seq, par, res.Stat, res.P)
	}
}

// TestWinnerProportionalToSupport: under Voter the probability a color
// wins equals its initial fraction (a martingale fact), a strong
// whole-trajectory correctness check of the batch engine.
func TestWinnerProportionalToSupport(t *testing.T) {
	const reps = 300
	start := config.TwoBlock(100, 25) // color 0 should win w.p. 1/4
	r := rng.New(153)
	wins := 0
	for i := 0; i < reps; i++ {
		res, err := NewRunner(rules.NewVoter(), WithRNG(r)).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if res.WinnerLabel == 0 {
			wins++
		}
	}
	frac := float64(wins) / reps
	sigma := math.Sqrt(0.25 * 0.75 / reps)
	if math.Abs(frac-0.25) > 4*sigma {
		t.Fatalf("color with 1/4 support won %.3f of runs, want ~0.25 (martingale property)", frac)
	}
}
