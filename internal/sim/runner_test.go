package sim

import (
	"context"
	"errors"
	"math"
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

func threeMajorityFactory() core.Rule { return rules.NewThreeMajority() }

// engineRunners returns one equally-configured Runner per engine, each on
// an independent seed.
func engineRunners(n int, extra ...Option) map[string]*Runner {
	withSeed := func(seed uint64, opts ...Option) []Option {
		return append(append([]Option{WithRNG(rng.New(seed))}, opts...), extra...)
	}
	return map[string]*Runner{
		"batch":  NewFactoryRunner(threeMajorityFactory, withSeed(11)...),
		"agents": NewFactoryRunner(threeMajorityFactory, withSeed(12, WithEngine(EngineAgents))...),
		"graph":  NewFactoryRunner(threeMajorityFactory, withSeed(13, WithGraph(graph.NewComplete(n)))...),
		"cluster": NewFactoryRunner(threeMajorityFactory,
			withSeed(14, WithEngine(EngineCluster))...),
	}
}

// TestRunnerCrossEngineConsistency: the four engines simulate the same
// synchronous 3-Majority process, so from the same workload their
// consensus-round distributions must be statistically indistinguishable
// (means within 4 standard errors, pairwise).
func TestRunnerCrossEngineConsistency(t *testing.T) {
	const (
		n    = 128
		reps = 30
	)
	start := config.Singleton(n)
	ctx := context.Background()

	type sample struct {
		name   string
		rounds []float64
	}
	var samples []sample
	for name, rn := range engineRunners(n) {
		results, err := rn.RunReplicas(ctx, start, reps, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, res := range results {
			if !res.Converged {
				t.Fatalf("%s replica %d did not converge", name, i)
			}
			if !res.Final.IsConsensus() {
				t.Fatalf("%s replica %d: final not consensus", name, i)
			}
			if !res.WinnerValid {
				t.Fatalf("%s replica %d: winner invalid without an adversary", name, i)
			}
		}
		samples = append(samples, sample{name: name, rounds: Rounds(results)})
	}

	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			a, b := samples[i], samples[j]
			ma, mb := stats.Mean(a.rounds), stats.Mean(b.rounds)
			se := math.Sqrt((stats.Summarize(a.rounds).Var + stats.Summarize(b.rounds).Var) / reps)
			if math.Abs(ma-mb) > 4*se+0.5 {
				t.Errorf("%s mean %.2f vs %s mean %.2f (se %.2f): engines disagree",
					a.name, ma, b.name, mb, se)
			}
		}
	}
}

// TestRunnerAdversaryOnEveryEngine: WithAdversary must compose with the
// batch, agents, graph and cluster engines alike — all reach a stable,
// valid almost-consensus against a small adversary, with statistically
// consistent stabilization times.
func TestRunnerAdversaryOnEveryEngine(t *testing.T) {
	const (
		n       = 600
		k       = 3
		epsilon = 0.05
		window  = 10
		reps    = 8
	)
	start := config.Balanced(n, k)
	ctx := context.Background()
	extra := []Option{
		WithAdversary(&adversary.BoostRunnerUp{F: 2}, epsilon, window),
		WithMaxRounds(50 * n),
	}

	type sample struct {
		name   string
		rounds []float64
	}
	var samples []sample
	for name, rn := range engineRunners(n, extra...) {
		results, err := rn.RunReplicas(ctx, start, reps, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rounds []float64
		for i, res := range results {
			if !res.Stable || !res.Converged {
				t.Fatalf("%s replica %d: no stable almost-consensus (rounds=%d)", name, i, res.Rounds)
			}
			if !res.WinnerValid {
				t.Fatalf("%s replica %d: winner %d not valid", name, i, res.WinnerLabel)
			}
			if res.AlmostConsensusRound < 0 || res.AlmostConsensusRound > res.Rounds {
				t.Fatalf("%s replica %d: AlmostConsensusRound %d out of range", name, i, res.AlmostConsensusRound)
			}
			if res.Corrupted == 0 {
				t.Fatalf("%s replica %d: adversary applied no corruption", name, i)
			}
			rounds = append(rounds, float64(res.Rounds))
		}
		samples = append(samples, sample{name: name, rounds: rounds})
	}
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			a, b := samples[i], samples[j]
			ma, mb := stats.Mean(a.rounds), stats.Mean(b.rounds)
			se := math.Sqrt((stats.Summarize(a.rounds).Var + stats.Summarize(b.rounds).Var) / reps)
			if math.Abs(ma-mb) > 4*se+1 {
				t.Errorf("%s mean %.2f vs %s mean %.2f (se %.2f): adversarial engines disagree",
					a.name, ma, b.name, mb, se)
			}
		}
	}
}

// TestRunnerInjectInvalidOnNodeEngines: the validity bookkeeping must
// survive the reconciliation of aggregate corruption onto concrete node
// states — the injected color (label -2) circulates but never wins.
func TestRunnerInjectInvalidOnNodeEngines(t *testing.T) {
	const n = 500
	start := config.Balanced(n, 3)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{name: "batch", opts: nil},
		{name: "agents", opts: []Option{WithEngine(EngineAgents)}},
		{name: "graph", opts: []Option{WithGraph(graph.NewComplete(n))}},
		{name: "cluster", opts: []Option{WithEngine(EngineCluster)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{
				WithAdversary(&adversary.InjectInvalid{F: 2}, 0.05, 10),
				WithMaxRounds(100_000),
				WithRNG(rng.New(129)),
			}, tc.opts...)
			res, err := NewFactoryRunner(threeMajorityFactory, opts...).Run(ctx, start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stable {
				t.Fatal("expected stability against a tiny invalid-injection adversary")
			}
			if res.WinnerLabel == -2 || !res.WinnerValid {
				t.Fatalf("converged to the invalid color: label %d", res.WinnerLabel)
			}
			// The injected color exists in the final configuration's slot
			// space (the adversary keeps re-injecting it).
			if err := res.Final.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if res.Final.N() != n {
				t.Fatalf("population changed: %d", res.Final.N())
			}
		})
	}
}

// TestRunnerSharedAdversaryAcrossReplicas: one InjectInvalid value serves
// parallel replicas and sequential reuse — regression for the stateful
// slot cache that panicked on the second configuration it saw.
func TestRunnerSharedAdversaryAcrossReplicas(t *testing.T) {
	adv := &adversary.InjectInvalid{F: 2}
	rn := NewFactoryRunner(threeMajorityFactory,
		WithAdversary(adv, 0.05, 10),
		WithMaxRounds(100_000),
		WithRNG(rng.New(17)))
	results, err := rn.RunReplicas(context.Background(), config.Balanced(300, 3), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Stable || !res.WinnerValid {
			t.Fatalf("replica %d: stable=%v valid=%v", i, res.Stable, res.WinnerValid)
		}
	}
	// Sequential reuse of the same Runner (and adversary) on fresh starts.
	reuse := NewRunner(rules.NewThreeMajority(),
		WithAdversary(adv, 0.05, 10),
		WithMaxRounds(100_000),
		WithSeed(18))
	for i := 0; i < 2; i++ {
		if _, err := reuse.Run(context.Background(), config.Balanced(200, 2)); err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
	}
}

// TestRunnerClusterBitsGrowWithInjectedColor: the payload accounting
// reflects the slot space the run actually used, not the initial one.
func TestRunnerClusterBitsGrowWithInjectedColor(t *testing.T) {
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineCluster),
		WithAdversary(&adversary.InjectInvalid{F: 2}, 0.05, 5),
		WithMaxRounds(100_000),
		WithRNG(rng.New(19))).
		Run(context.Background(), config.Balanced(120, 4))
	if err != nil {
		t.Fatal(err)
	}
	// 4 initial colors + the injected one = 5 slots → 3 bits, not 2.
	if res.BitsPerMessage != 3 {
		t.Fatalf("BitsPerMessage = %d, want 3 after injection", res.BitsPerMessage)
	}
}

// TestRunnerOverwhelmingAdversary: a budget close to n prevents stability
// on every engine (ported from the old adversary.Run tests).
func TestRunnerOverwhelmingAdversary(t *testing.T) {
	start := config.TwoBlock(200, 100)
	res, err := NewRunner(rules.NewThreeMajority(),
		WithAdversary(&adversary.BoostRunnerUp{F: 80}, 0.05, 20),
		WithMaxRounds(2000),
		WithRNG(rng.New(128))).
		Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable || res.Converged {
		t.Fatal("a budget-80 adversary on n=200 should prevent stability")
	}
	if res.Rounds != 2000 {
		t.Fatalf("Rounds = %d, want full budget", res.Rounds)
	}
}

func TestRunnerAdversaryDoesNotMutateStart(t *testing.T) {
	start := config.Balanced(100, 2)
	before := start.CountsCopy()
	_, err := NewRunner(rules.NewVoter(),
		WithAdversary(&adversary.RandomNoise{F: 1}, 0.1, 5),
		WithMaxRounds(1000),
		WithRNG(rng.New(131))).
		Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	after := start.CountsCopy()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Run mutated start")
		}
	}
}

// TestRunnerClusterMessages: the cluster engine reports message accounting
// through the unified Result.
func TestRunnerClusterMessages(t *testing.T) {
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineCluster),
		WithRNG(rng.New(203))).
		Run(context.Background(), config.Balanced(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := int64(res.Rounds) * 40 * 3 * 2
	if res.Messages != want {
		t.Fatalf("Messages = %d, want %d (rounds=%d)", res.Messages, want, res.Rounds)
	}
	if res.BitsPerMessage != 1 {
		t.Fatalf("BitsPerMessage = %d, want 1", res.BitsPerMessage)
	}
}

// TestRunnerFullOptionSetOnCluster: traces, color times and observers —
// historically batch-only — work on the cluster engine through the shared
// round loop.
func TestRunnerFullOptionSetOnCluster(t *testing.T) {
	observed := 0
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineCluster),
		WithRNG(rng.New(204)),
		WithTrace(2),
		WithColorTimes(4, 1),
		WithObserver(func(int, *config.Config) { observed++ })).
		Run(context.Background(), config.Singleton(64))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace from the cluster engine")
	}
	if res.ColorTimes[4] > res.ColorTimes[1] {
		t.Fatalf("T^4 = %d > T^1 = %d", res.ColorTimes[4], res.ColorTimes[1])
	}
	if observed != res.Rounds+1 {
		t.Fatalf("observer saw %d rounds, want %d", observed, res.Rounds+1)
	}
}

// TestRunnerGraphTopology: the graph engine honors a non-complete
// topology via WithGraph.
func TestRunnerGraphTopology(t *testing.T) {
	const n = 64
	res, err := NewRunner(rules.NewVoter(),
		WithGraph(graph.NewRing(n)),
		WithRNG(rng.New(31)),
		WithMaxRounds(1_000_000)).
		Run(context.Background(), config.Balanced(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Final.IsConsensus() {
		t.Fatal("voter on a ring did not converge")
	}
}

func TestRunnerOptionValidation(t *testing.T) {
	ctx := context.Background()
	start := config.Balanced(64, 2)
	voter := rules.NewVoter()

	cases := []struct {
		name string
		run  func() error
	}{
		{"nil rule", func() error {
			_, err := NewRunner(nil).Run(ctx, start)
			return err
		}},
		{"nil factory rule", func() error {
			_, err := NewFactoryRunner(func() core.Rule { return nil }).Run(ctx, start)
			return err
		}},
		{"nil start", func() error {
			_, err := NewRunner(voter).Run(ctx, nil)
			return err
		}},
		{"graph engine without graph", func() error {
			_, err := NewRunner(voter, WithEngine(EngineGraph)).Run(ctx, start)
			return err
		}},
		{"graph with mismatched engine", func() error {
			_, err := NewRunner(voter, WithGraph(graph.NewComplete(64)), WithEngine(EngineBatch)).Run(ctx, start)
			return err
		}},
		{"graph size mismatch", func() error {
			_, err := NewRunner(voter, WithGraph(graph.NewComplete(10))).Run(ctx, start)
			return err
		}},
		{"unknown engine", func() error {
			_, err := NewRunner(voter, WithEngine(Engine(99))).Run(ctx, start)
			return err
		}},
		{"cluster without factory", func() error {
			_, err := NewRunner(voter, WithEngine(EngineCluster)).Run(ctx, start)
			return err
		}},
		{"agents engine without node semantics", func() error {
			_, err := NewRunner(rules.NewUndecided(), WithEngine(EngineAgents)).Run(ctx, start)
			return err
		}},
		{"nil adversary", func() error {
			_, err := NewRunner(voter, WithAdversary(nil, 0.1, 5)).Run(ctx, start)
			return err
		}},
		{"epsilon zero", func() error {
			_, err := NewRunner(voter, WithAdversary(&adversary.RandomNoise{F: 1}, 0, 5)).Run(ctx, start)
			return err
		}},
		{"epsilon one", func() error {
			_, err := NewRunner(voter, WithAdversary(&adversary.RandomNoise{F: 1}, 1, 5)).Run(ctx, start)
			return err
		}},
		{"zero window", func() error {
			_, err := NewRunner(voter, WithAdversary(&adversary.RandomNoise{F: 1}, 0.1, 0)).Run(ctx, start)
			return err
		}},
		{"rng and seed together", func() error {
			_, err := NewRunner(voter, WithRNG(rng.New(1)), WithSeed(2)).Run(ctx, start)
			return err
		}},
		{"zero max rounds", func() error {
			_, err := NewRunner(voter, WithMaxRounds(0)).Run(ctx, start)
			return err
		}},
		{"zero target colors", func() error {
			_, err := NewRunner(voter, WithTargetColors(0)).Run(ctx, start)
			return err
		}},
		{"replicas without factory", func() error {
			_, err := NewRunner(voter).RunReplicas(ctx, start, 4, 2)
			return err
		}},
		{"zero replicas", func() error {
			_, err := NewFactoryRunner(func() core.Rule { return rules.NewVoter() }).RunReplicas(ctx, start, 0, 2)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// TestRunnerValidationErrorsAreDescriptive: misconfiguration errors point
// at the fix.
func TestRunnerValidationErrorsAreDescriptive(t *testing.T) {
	_, err := NewRunner(rules.NewVoter(), WithEngine(EngineCluster)).
		Run(context.Background(), config.Balanced(10, 2))
	if err == nil || !strings.Contains(err.Error(), "NewFactoryRunner") {
		t.Fatalf("cluster-without-factory error should point at NewFactoryRunner: %v", err)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	start := config.Singleton(256)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	engines := map[string][]Option{
		"batch":   nil,
		"agents":  {WithEngine(EngineAgents)},
		"graph":   {WithGraph(graph.NewComplete(256))},
		"cluster": {WithEngine(EngineCluster)},
	}
	for name, opts := range engines {
		t.Run(name+"/pre-canceled", func(t *testing.T) {
			rn := NewFactoryRunner(threeMajorityFactory, append([]Option{WithRNG(rng.New(7))}, opts...)...)
			if _, err := rn.Run(canceled, start); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}

	t.Run("mid-run", func(t *testing.T) {
		ctx, cancelMid := context.WithCancel(context.Background())
		defer cancelMid()
		rn := NewFactoryRunner(threeMajorityFactory,
			WithRNG(rng.New(8)),
			WithObserver(func(round int, _ *config.Config) {
				if round == 3 {
					cancelMid()
				}
			}))
		if _, err := rn.Run(ctx, start); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-run cluster", func(t *testing.T) {
		ctx, cancelMid := context.WithCancel(context.Background())
		defer cancelMid()
		rn := NewFactoryRunner(threeMajorityFactory,
			WithEngine(EngineCluster),
			WithRNG(rng.New(9)),
			WithObserver(func(round int, _ *config.Config) {
				if round == 2 {
					cancelMid()
				}
			}))
		if _, err := rn.Run(ctx, config.Singleton(64)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("replicas", func(t *testing.T) {
		rn := NewFactoryRunner(threeMajorityFactory, WithRNG(rng.New(10)))
		if _, err := rn.RunReplicas(canceled, start, 8, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestRunnerWith: With extends a runner without mutating the receiver.
func TestRunnerWith(t *testing.T) {
	base := NewFactoryRunner(threeMajorityFactory, WithSeed(5))
	bounded := base.with(WithMaxRounds(1))
	res, err := bounded.Run(context.Background(), config.Singleton(512))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Rounds != 1 {
		t.Fatalf("bounded runner: converged=%v rounds=%d", res.Converged, res.Rounds)
	}
	res, err = base.Run(context.Background(), config.Singleton(512))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("base runner was mutated by With")
	}
}

// TestRunnerSeedDeterminism: same seed, same results, engine by engine —
// including, since the event-driven rewrite, the cluster engine.
func TestRunnerSeedDeterminism(t *testing.T) {
	start := config.Singleton(200)
	for name, opts := range map[string][]Option{
		"batch":   nil,
		"agents":  {WithEngine(EngineAgents)},
		"graph":   {WithGraph(graph.NewComplete(200))},
		"cluster": {WithEngine(EngineCluster)},
	} {
		t.Run(name, func(t *testing.T) {
			run := func() *Result {
				rn := NewFactoryRunner(threeMajorityFactory, append([]Option{WithSeed(4242)}, opts...)...)
				res, err := rn.Run(context.Background(), start)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel {
				t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Rounds, a.WinnerLabel, b.Rounds, b.WinnerLabel)
			}
		})
	}
}

// with returns a new Runner with opts appended to the receiver's options
// (later options win), leaving the receiver unchanged.
func (rn *Runner) with(opts ...Option) *Runner {
	cp := *rn
	cp.opts = append(append([]Option(nil), rn.opts...), opts...)
	return &cp
}
