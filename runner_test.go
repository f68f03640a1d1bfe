package consensus_test

import (
	"context"
	"errors"
	"testing"

	consensus "github.com/ignorecomply/consensus"
)

// The Runner facade tests exercise the unified entry point the way a
// downstream user would: one constructor, engines and the §5 adversary as
// options, context-aware execution.

func TestRunnerFacadeBatch(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithSeed(1))
	res, err := runner.Run(context.Background(), consensus.SingletonConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Final.IsConsensus() {
		t.Fatalf("3-majority runner failed: %+v", res)
	}
	if !res.WinnerValid {
		t.Fatal("winner must be valid without an adversary")
	}
}

func TestRunnerFacadeEngines(t *testing.T) {
	const n = 120
	factory := func() consensus.Rule { return consensus.NewThreeMajority() }
	for name, opts := range map[string][]consensus.Option{
		"agents":  {consensus.WithEngine(consensus.EngineAgents)},
		"graph":   {consensus.WithGraph(consensus.NewCompleteGraph(n))},
		"cluster": {consensus.WithEngine(consensus.EngineCluster)},
	} {
		t.Run(name, func(t *testing.T) {
			runner := consensus.NewFactoryRunner(factory,
				append([]consensus.Option{consensus.WithSeed(2)}, opts...)...)
			res, err := runner.Run(context.Background(), consensus.BalancedConfig(n, 4))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s engine did not converge", name)
			}
		})
	}
}

func TestRunnerFacadeReplicas(t *testing.T) {
	runner := consensus.NewFactoryRunner(
		func() consensus.Rule { return consensus.NewVoter() },
		consensus.WithRNG(consensus.NewRNG(2)))
	results, err := runner.RunReplicas(context.Background(), consensus.BalancedConfig(500, 5), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestRunnerFacadeAdversaryOnCluster(t *testing.T) {
	runner := consensus.NewFactoryRunner(
		func() consensus.Rule { return consensus.NewThreeMajority() },
		consensus.WithEngine(consensus.EngineCluster),
		consensus.WithAdversary(&consensus.BoostRunnerUp{F: 1}, 0.05, 10),
		consensus.WithMaxRounds(100_000),
		consensus.WithSeed(5))
	res, err := runner.Run(context.Background(), consensus.BalancedConfig(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || !res.WinnerValid {
		t.Fatalf("adversary on cluster engine: stable=%v valid=%v", res.Stable, res.WinnerValid)
	}
	if res.Messages == 0 {
		t.Fatal("no messages accounted")
	}
	if res.Corrupted == 0 {
		t.Fatal("no corruption accounted")
	}
}

func TestRunnerFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := consensus.NewRunner(consensus.NewVoter(), consensus.WithSeed(3))
	if _, err := runner.Run(ctx, consensus.SingletonConfig(100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunnerFacadeAdversaryBatch pins the §5 regime on the default
// engine: stability and validity under a small boost-runner-up budget.
// (The pre-scenario Run* shims were removed once everything migrated to
// the Runner; this covers what their last compatibility test covered.)
func TestRunnerFacadeAdversaryBatch(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithAdversary(&consensus.BoostRunnerUp{F: 2}, 0.05, 20),
		consensus.WithMaxRounds(100000),
		consensus.WithRNG(consensus.NewRNG(6)))
	res, err := runner.Run(context.Background(), consensus.BalancedConfig(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || !res.WinnerValid {
		t.Fatalf("adversarial batch run: stable=%v valid=%v", res.Stable, res.WinnerValid)
	}
}

// TestHybridBillionNodeCellFastForwards pins the hybrid engine's
// acceptance cell — n = 10⁹ 5-Majority from a biased two-color start, the
// cell BenchmarkHybridRun times at n = 10⁵ — by the work it does, not by
// a clock: the run must reach consensus with most of its rounds taken as
// one certified stretch.
//
// Measured at seed 1 (and at seeds 2, 3, 1001, 2001 alike): 7 rounds, 3
// exact and 4 skipped in one stretch; the batch engine needs 7 exact
// rounds from the same start. The bounds leave one exact round and two
// skipped rounds of margin, and a planner that never engages (7 exact,
// 0 skipped) fails both.
func TestHybridBillionNodeCellFastForwards(t *testing.T) {
	const (
		maxExact   = 4
		minSkipped = 2
	)
	start := consensus.BiasedConfig(1_000_000_000, 2, 100_000_000)
	res, err := consensus.NewFactoryRunner(func() consensus.Rule { return consensus.NewHMajority(5) },
		consensus.WithEngine(consensus.EngineHybrid),
		consensus.WithSeed(1),
		consensus.WithMaxRounds(100),
	).Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("n=1e9 hybrid run did not converge in %d rounds", res.Rounds)
	}
	ff := res.FastForward
	if ff.ExactRounds > maxExact || ff.SkippedRounds < minSkipped {
		t.Errorf("n=1e9 hybrid run: %d exact, %d skipped rounds; want <= %d exact and >= %d skipped",
			ff.ExactRounds, ff.SkippedRounds, maxExact, minSkipped)
	}
}
