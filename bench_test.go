package consensus_test

// The root benchmarks regenerate every paper artifact: one testing.B
// benchmark per experiment E1..E12 (see DESIGN.md §4 for the experiment ↔
// paper-claim mapping), plus whole runs of paper cells that no layer
// benchmark covers. One round of a rule, a sampler or a per-node shard is
// timed in its own package (internal/rules BenchmarkStep, internal/rng,
// internal/sim BenchmarkRoundAgentsParallel, internal/coalesce
// BenchmarkDualityVerify).
//
// Run everything with:
//
//	go test -run '^$' -bench . -benchmem
//
// Each experiment benchmark executes the full quick-scale experiment per
// iteration and reports rows produced. The experiments are declared in
// scenarios/*.json; `consensus-sim -scenario E<i> -scale full` prints a
// full-scale table.

import (
	"context"
	"fmt"
	"math"
	"testing"

	consensus "github.com/ignorecomply/consensus"
	// Register the reducers and adapters the E1–E12 scenarios name.
	_ "github.com/ignorecomply/consensus/internal/expt"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// embeddedScenario decodes a checked-in scenario file.
func embeddedScenario(tb testing.TB, file string) *scenario.Scenario {
	tb.Helper()
	data, err := scenarios.Read(file)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := scenario.DecodeBytes(data)
	if err != nil {
		tb.Fatalf("%s: %v", file, err)
	}
	return s
}

func benchExperiment(b *testing.B, file string) {
	s := embeddedScenario(b, file)
	params := scenario.Params{Seed: 1, Scale: scenario.Quick}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := scenario.Run(context.Background(), s, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(float64(len(tbl.Rows)), "rows")
	}
}

// One benchmark per paper artifact.

func BenchmarkE1ThreeMajorityUpper(b *testing.B)  { benchExperiment(b, "e01_threemajority_upper.json") }
func BenchmarkE2TwoChoicesLower(b *testing.B)     { benchExperiment(b, "e02_twochoices_lower.json") }
func BenchmarkE3DominanceVoter3M(b *testing.B)    { benchExperiment(b, "e03_dominance.json") }
func BenchmarkE4VoterReduction(b *testing.B)      { benchExperiment(b, "e04_voter_reduction.json") }
func BenchmarkE5DualityCoupling(b *testing.B)     { benchExperiment(b, "e05_duality.json") }
func BenchmarkE6ExpectationIdentity(b *testing.B) { benchExperiment(b, "e06_expectation.json") }
func BenchmarkE7Counterexample(b *testing.B)      { benchExperiment(b, "e07_counterexample.json") }
func BenchmarkE8BiasedRegime(b *testing.B)        { benchExperiment(b, "e08_biased.json") }
func BenchmarkE9Hierarchy(b *testing.B)           { benchExperiment(b, "e09_hierarchy.json") }
func BenchmarkE10Byzantine(b *testing.B)          { benchExperiment(b, "e10_byzantine.json") }
func BenchmarkE11Separation(b *testing.B)         { benchExperiment(b, "e11_separation.json") }
func BenchmarkE12PhaseSplit(b *testing.B)         { benchExperiment(b, "e12_phases.json") }

// Whole-run benchmarks of the engines, one paper cell each.

// BenchmarkBatchRunSingleton measures one sep-3m cell of the paper-batch
// workload: 3-Majority on the batch engine from Singleton(2^14), run to
// consensus under the cell's 16·√n round cap. Each iteration is one whole
// run, so the round loop's set-up from n initial colors is included.
func BenchmarkBatchRunSingleton(b *testing.B) {
	const n = 1 << 14
	cfg := consensus.SingletonConfig(n)
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithEngine(consensus.EngineBatch),
		consensus.WithMaxRounds(16*128),
		consensus.WithSeed(6))
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("no consensus within the cell's round cap")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

// BenchmarkBatchRunSingletonTwoChoices measures the paper-batch sep-2c
// cell: 2-Choices on the batch engine from Singleton(1024), run to
// consensus under the cell's 4n round cap. Each iteration is one whole
// run, the runs continuing one random stream, so ns/op averages over the
// spread of Θ(n/log n) round counts.
func BenchmarkBatchRunSingletonTwoChoices(b *testing.B) {
	const n = 1 << 10
	cfg := consensus.SingletonConfig(n)
	runner := consensus.NewRunner(consensus.NewTwoChoices(),
		consensus.WithEngine(consensus.EngineBatch),
		consensus.WithMaxRounds(4*n),
		consensus.WithRNG(consensus.NewRNG(6)))
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("no consensus within the cell's round cap")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

// BenchmarkHybridRun measures the hybrid engine in the h-Majority regime
// of the paper's Conjecture 1 and E13: 5-Majority from
// BiasedConfig(10^5, 2, 10^4), run to consensus under a 200-round cap.
// Each iteration is one whole run, the runs continuing one random stream,
// so a plan that certifies nothing is paid for in the exact rounds it
// precedes. It reports the mean exact and skipped rounds per run.
func BenchmarkHybridRun(b *testing.B) {
	cfg := consensus.BiasedConfig(100_000, 2, 10_000)
	runner := consensus.NewFactoryRunner(func() consensus.Rule { return consensus.NewHMajority(5) },
		consensus.WithEngine(consensus.EngineHybrid),
		consensus.WithMaxRounds(200),
		consensus.WithRNG(consensus.NewRNG(1)))
	b.ReportAllocs()
	exact, skipped := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("no consensus within the cell's round cap")
		}
		exact += res.FastForward.ExactRounds
		skipped += res.FastForward.SkippedRounds
	}
	b.ReportMetric(float64(exact)/float64(b.N), "exact/run")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/run")
}

// BenchmarkClusterRound measures the cluster engine's event-driven path on
// the pernode workload's cluster-net cell: 3-Majority from a balanced
// start at n = 10^4, k = 16 under Net{Delay: 1, Jitter: 2, Loss: 0.05},
// one worker lane, run to consensus. Each iteration is one whole run, so
// set-up is included; ns/node-round divides by the rounds it took.
func BenchmarkClusterRound(b *testing.B) {
	const n = 10_000
	cfg := consensus.BalancedConfig(n, 16)
	runner := consensus.NewFactoryRunner(
		func() consensus.Rule { return consensus.NewThreeMajority() },
		consensus.WithNetwork(&consensus.Network{Delay: 1, Jitter: 2, Loss: 0.05}),
		consensus.WithParallelism(1),
		consensus.WithSeed(21))
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds)/n, "ns/node-round")
}

// BenchmarkAgentsRun measures the agents kernel on two of the pernode
// workload's cells: 3-Majority from a balanced 16-color start, one shard,
// run to consensus. The agents cell pulls uniformly at n = 5·10^4; the
// graph-regular cell pulls through a random 3-regular graph at n = 10^4.
// Each iteration is one whole run, so set-up is included; ns/node-round
// divides by the rounds it took.
func BenchmarkAgentsRun(b *testing.B) {
	rr, err := consensus.NewRandomRegularGraph(10_000, 3, consensus.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	cells := []struct {
		name string
		n    int
		opt  consensus.Option
	}{
		{"agents", 50_000, consensus.WithEngine(consensus.EngineAgents)},
		{"graph-regular", 10_000, consensus.WithGraph(rr)},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			cfg := consensus.BalancedConfig(c.n, 16)
			runner := consensus.NewFactoryRunner(
				func() consensus.Rule { return consensus.NewThreeMajority() },
				c.opt, consensus.WithParallelism(1), consensus.WithSeed(21))
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds)/float64(c.n), "ns/node-round")
		})
	}
}

// BenchmarkSuiteReplicas prices the scenario layer's per-run work on the
// paper-batch workload's biased regime (the ff-batch family's k = 2
// cell): 3-Majority on the batch engine at n = 10^6 from a two-color
// start with bias ceil(4·√(n ln n)), 2,000 replicas on one worker. The
// suite sub-benchmark runs the cell as a scenario document through
// scenario.RunChecked (expansion, stream derivation, the replica pool,
// reduction and the expect check); the runner sub-benchmark runs the
// same replicas on the same streams through Runner.RunReplicas. Their
// ns/run difference is what the suite layer costs per run.
func BenchmarkSuiteReplicas(b *testing.B) {
	const (
		n        = 1_000_000
		k        = 2
		replicas = 2000
		seed     = 1
	)
	bias := int(math.Ceil(4 * math.Sqrt(n*math.Log(n))))
	b.Run("suite", func(b *testing.B) {
		s, err := scenario.DecodeBytes([]byte(fmt.Sprintf(`{
			"schema": 1, "name": "suite-replicas", "params": {"n": %d}, "replicas": %d,
			"rule": {"name": "3-majority"},
			"init": {"generator": "biased", "k": %d, "bias": %d},
			"stop": {"max_rounds": 10000},
			"expect": [{"name": "every replica reaches consensus", "converged": {"min_fraction": 1}}]
		}`, n, replicas, k, bias)))
		if err != nil {
			b.Fatal(err)
		}
		p := scenario.Params{Seed: seed, Scale: scenario.Quick, Workers: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := scenario.RunChecked(context.Background(), s, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*replicas), "ns/run")
	})
	b.Run("runner", func(b *testing.B) {
		cfg := consensus.BiasedConfig(n, k, bias)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner := consensus.NewFactoryRunner(func() consensus.Rule { return consensus.NewThreeMajority() },
				consensus.WithMaxRounds(10000),
				consensus.WithRNG(consensus.NewRNG(seed)))
			results, err := runner.RunReplicas(context.Background(), cfg, replicas, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if !res.Converged {
					b.Fatal("a replica did not reach consensus")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*replicas), "ns/run")
	})
}

// BenchmarkAblationLaziness contrasts plain Voter against the [BGKMT16]
// lazy variant the paper's §3.2 deliberately avoids: per-node laziness
// costs a constant factor (≈4/3 at β=1/2) and buys nothing here.
func BenchmarkAblationLaziness(b *testing.B) {
	variants := []struct {
		name string
		mk   consensus.Factory
	}{
		{name: "voter", mk: func() consensus.Rule { return consensus.NewVoter() }},
		{name: "lazy-voter-0.5", mk: func() consensus.Rule { return consensus.NewLazyVoter(0.5) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			runner := consensus.NewFactoryRunner(v.mk,
				consensus.WithTargetColors(8),
				consensus.WithRNG(consensus.NewRNG(5)))
			cfg := consensus.SingletonConfig(2048)
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
		})
	}
}
