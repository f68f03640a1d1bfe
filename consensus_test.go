package consensus_test

import (
	"context"
	"testing"

	consensus "github.com/ignorecomply/consensus"
	"github.com/ignorecomply/consensus/scenario"
)

// The facade tests exercise the whole public API end-to-end the way a
// downstream user would.

func TestQuickstartFlow(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithRNG(consensus.NewRNG(1)))
	res, err := runner.Run(context.Background(), consensus.SingletonConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Final.IsConsensus() {
		t.Fatalf("3-majority quickstart failed: %+v", res)
	}
}

func TestReplicaFlow(t *testing.T) {
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

func TestFrameworkFlow(t *testing.T) {
	r := consensus.NewRNG(3)
	pairs := consensus.ComparablePairs(500, 8, 50, r)
	if v := consensus.VerifyDominance(consensus.NewThreeMajority(), consensus.NewVoter(), pairs, 1e-9); v != nil {
		t.Fatalf("Lemma 2 dominance violated via public API: %v", v)
	}
	checks, ok := consensus.CheckStochasticMajorization(
		[]float64{0.7, 0.3, 0}, []float64{0.4, 0.3, 0.3}, 200, 300, r)
	if !ok {
		t.Fatalf("stochastic majorization failed: %+v", checks)
	}
}

func TestDualityFlow(t *testing.T) {
	r := consensus.NewRNG(4)
	tb, err := consensus.NewDualityTable(consensus.NewCompleteGraph(40), 60, r)
	if err != nil {
		t.Fatal(err)
	}
	mismatch, err := tb.Verify(60)
	if err != nil {
		t.Fatal(err)
	}
	if mismatch != nil {
		t.Fatalf("Lemma 4 mismatch via public API: %+v", mismatch)
	}
}

func TestAdversaryFlow(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithAdversary(&consensus.BoostRunnerUp{F: 2}, 0.05, 20),
		consensus.WithMaxRounds(100000),
		consensus.WithRNG(consensus.NewRNG(5)))
	res, err := runner.Run(context.Background(), consensus.BalancedConfig(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || !res.WinnerValid {
		t.Fatalf("adversary flow: stable=%v valid=%v", res.Stable, res.WinnerValid)
	}
}

func TestClusterFlow(t *testing.T) {
	runner := consensus.NewFactoryRunner(
		func() consensus.Rule { return consensus.NewVoter() },
		consensus.WithEngine(consensus.EngineCluster),
		consensus.WithSeed(6),
		consensus.WithMaxRounds(100000))
	res, err := runner.Run(context.Background(), consensus.BalancedConfig(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("cluster flow did not converge")
	}
	if res.Messages == 0 {
		t.Fatal("no messages accounted")
	}
}

func TestAgentsFlow(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewTwoChoices(),
		consensus.WithEngine(consensus.EngineAgents),
		consensus.WithMaxRounds(100000),
		consensus.WithRNG(consensus.NewRNG(7)))
	res, err := runner.Run(context.Background(), consensus.TwoBlockConfig(100, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("agents flow did not converge")
	}
}

// TestEmbeddedExperimentFlow runs a checked-in paper experiment the way
// a downstream user would: read the embedded file, decode it, execute it.
func TestEmbeddedExperimentFlow(t *testing.T) {
	tbl, err := scenario.Run(context.Background(), embeddedScenario(t, "e07_counterexample.json"),
		scenario.Params{Seed: 1, Scale: scenario.Quick, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E7" || len(tbl.Rows) == 0 {
		t.Fatalf("E7 table: id %q, %d rows", tbl.ID, len(tbl.Rows))
	}
}

func TestColorTimesFlow(t *testing.T) {
	runner := consensus.NewRunner(consensus.NewVoter(),
		consensus.WithColorTimes(50, 1), consensus.WithTrace(10),
		consensus.WithRNG(consensus.NewRNG(8)))
	res, err := runner.Run(context.Background(), consensus.SingletonConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.ColorTimes[50] > res.ColorTimes[1] {
		t.Fatal("T^50 > T^1")
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
}

// TestScenarioFlow exercises the declarative layer the way a downstream
// user would: author a spec as JSON, decode strictly, execute the suite
// through the default summary reducer.
func TestScenarioFlow(t *testing.T) {
	spec := []byte(`{
		"schema": 1,
		"name": "facade-smoke",
		"params": {"n": 400},
		"sweep": [{"name": "k", "values": [2, 4]}],
		"replicas": 3,
		"rule": {"name": "3-majority"},
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "50 * n"}
	}`)
	s, err := scenario.DecodeBytes(spec)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(context.Background(), s, scenario.Params{Seed: 9, Scale: scenario.Quick, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("summary rows = %d, want one per cell", len(tbl.Rows))
	}
}
