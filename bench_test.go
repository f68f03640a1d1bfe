package consensus_test

// The benchmark harness regenerates every paper artifact: one testing.B
// benchmark per experiment E1..E12 (see DESIGN.md §4 for the experiment ↔
// paper-claim mapping), plus micro-benchmarks of the simulation engines.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the full quick-scale experiment per
// iteration and reports rows produced. The experiments are declared in
// scenarios/*.json; `consensus-sim -scenario E<i> -scale full` prints a
// full-scale table.

import (
	"context"
	"fmt"
	"testing"

	consensus "github.com/ignorecomply/consensus"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := consensus.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	params := consensus.ExperimentParams{Seed: 1, Scale: consensus.QuickScale}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(params)
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

func BenchmarkE1ThreeMajorityUpper(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2TwoChoicesLower(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3DominanceVoter3M(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4VoterReduction(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5DualityCoupling(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6ExpectationIdentity(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Counterexample(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8BiasedRegime(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9Hierarchy(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10Byzantine(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11Separation(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12PhaseSplit(b *testing.B)         { benchExperiment(b, "E12") }

// Engine micro-benchmarks: cost of one exact-law round per rule and size.

func BenchmarkRoundBatch(b *testing.B) {
	sizes := []struct {
		n, k int
	}{
		{n: 10_000, k: 10},
		{n: 100_000, k: 1000},
		{n: 1_000_000, k: 1_000_000},
	}
	factories := []struct {
		name string
		mk   consensus.Factory
	}{
		{name: "voter", mk: func() consensus.Rule { return consensus.NewVoter() }},
		{name: "2-choices", mk: func() consensus.Rule { return consensus.NewTwoChoices() }},
		{name: "3-majority", mk: func() consensus.Rule { return consensus.NewThreeMajority() }},
	}
	for _, size := range sizes {
		for _, f := range factories {
			name := fmt.Sprintf("%s/n=%d,k=%d", f.name, size.n, size.k)
			b.Run(name, func(b *testing.B) {
				r := consensus.NewRNG(1)
				var cfg *consensus.Config
				if size.k == size.n {
					cfg = consensus.SingletonConfig(size.n)
				} else {
					cfg = consensus.BalancedConfig(size.n, size.k)
				}
				rule := f.mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := cfg.Clone()
					rule.Step(c, r)
				}
			})
		}
	}
}

// BenchmarkRoundAgents measures the literal per-node engine for contrast
// with the O(k) batch laws above.
func BenchmarkRoundAgents(b *testing.B) {
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithEngine(consensus.EngineAgents),
		consensus.WithMaxRounds(1), consensus.WithTargetColors(1),
		consensus.WithRNG(consensus.NewRNG(2)))
	cfg := consensus.BalancedConfig(10_000, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullConsensus measures complete runs to consensus.
func BenchmarkFullConsensus(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("3-majority/n=%d", n), func(b *testing.B) {
			runner := consensus.NewRunner(consensus.NewThreeMajority(),
				consensus.WithRNG(consensus.NewRNG(3)))
			cfg := consensus.SingletonConfig(n)
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/consensus")
		})
	}
}

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

// BenchmarkDualityTable measures the Lemma 4 coupling verification.
func BenchmarkDualityTable(b *testing.B) {
	r := consensus.NewRNG(4)
	g := consensus.NewCompleteGraph(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := consensus.NewDualityTable(g, 128, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.Verify(128); err != nil {
			b.Fatal(err)
		}
	}
}
