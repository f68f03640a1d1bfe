package sim

import (
	"context"
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

func TestRunVoterToConsensus(t *testing.T) {
	r := rng.New(91)
	res, err := NewRunner(rules.NewVoter(), WithRNG(r)).
		Run(context.Background(), config.Balanced(200, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("voter did not converge")
	}
	if !res.Final.IsConsensus() {
		t.Fatalf("final config not consensus: %v", res.Final)
	}
	if res.WinnerLabel < 0 || res.WinnerLabel > 3 {
		t.Fatalf("winner label %d out of range", res.WinnerLabel)
	}
}

func TestRunThreeMajorityFromSingleton(t *testing.T) {
	r := rng.New(92)
	res, err := NewRunner(rules.NewThreeMajority(), WithRNG(r)).
		Run(context.Background(), config.Singleton(500))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("3-majority did not converge from the n-color configuration")
	}
	if res.Rounds <= 0 {
		t.Fatalf("Rounds = %d", res.Rounds)
	}
}

func TestRunMaxRoundsBudget(t *testing.T) {
	r := rng.New(93)
	res, err := NewRunner(rules.NewTwoChoices(), WithRNG(r), WithMaxRounds(3)).
		Run(context.Background(), config.Singleton(400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("2-choices cannot reach consensus from 400 colors in 3 rounds")
	}
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Rounds)
	}
}

func TestRunTargetColors(t *testing.T) {
	r := rng.New(94)
	res, err := NewRunner(rules.NewVoter(), WithRNG(r), WithTargetColors(10)).
		Run(context.Background(), config.Singleton(300))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not reach 10 colors")
	}
	if got := res.Final.Remaining(); got > 10 {
		t.Fatalf("final colors %d > 10", got)
	}
}

func TestRunColorTimesMonotone(t *testing.T) {
	r := rng.New(95)
	res, err := NewRunner(rules.NewVoter(), WithRNG(r), WithColorTimes(100, 50, 10, 1)).
		Run(context.Background(), config.Singleton(400))
	if err != nil {
		t.Fatal(err)
	}
	t100, t50, t10, t1 := res.ColorTimes[100], res.ColorTimes[50], res.ColorTimes[10], res.ColorTimes[1]
	if !(t100 <= t50 && t50 <= t10 && t10 <= t1) {
		t.Fatalf("T^κ not monotone: %d, %d, %d, %d", t100, t50, t10, t1)
	}
	if t1 != res.Rounds {
		t.Fatalf("T^1 = %d but Rounds = %d", t1, res.Rounds)
	}
}

func TestRunAlreadyConverged(t *testing.T) {
	r := rng.New(96)
	res, err := NewRunner(rules.NewVoter(), WithRNG(r)).
		Run(context.Background(), config.Consensus(50))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("consensus start: Converged=%v Rounds=%d", res.Converged, res.Rounds)
	}
}

func TestRunTrace(t *testing.T) {
	r := rng.New(97)
	res, err := NewRunner(rules.NewVoter(), WithRNG(r), WithTrace(5)).
		Run(context.Background(), config.Singleton(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace points")
	}
	prev := -1
	for _, tp := range res.Trace {
		if tp.Round <= prev {
			t.Fatalf("trace rounds not increasing: %v", res.Trace)
		}
		prev = tp.Round
		if tp.Colors < 1 || tp.MaxSupport < 1 {
			t.Fatalf("implausible trace point %+v", tp)
		}
	}
	if last := res.Trace[len(res.Trace)-1]; last.Round != res.Rounds {
		t.Fatalf("last trace at round %d, run ended at %d", last.Round, res.Rounds)
	}
}

func TestRunObserverSeesEveryRound(t *testing.T) {
	r := rng.New(98)
	var rounds []int
	_, err := NewRunner(rules.NewVoter(), WithRNG(r),
		WithObserver(func(round int, c *config.Config) {
			rounds = append(rounds, round)
		})).Run(context.Background(), config.Balanced(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range rounds {
		if got != i {
			t.Fatalf("observer rounds = %v", rounds)
		}
	}
}

// TestRunCompaction pins the batch round's cost by counting its work: a
// batch run drops every slot that died in a round before the next round
// starts, so the slots a round scans at round t are exactly the colors
// alive at round t−1. An adversarial run keeps every slot where it is:
// adversaries act on extinct slots too.
func TestRunCompaction(t *testing.T) {
	cases := []struct {
		name  string
		rule  core.Rule
		start *config.Config
	}{
		{"voter", rules.NewVoter(), config.Singleton(500)},
		{"3-majority", rules.NewThreeMajority(), config.Singleton(4096)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prevLive := tc.start.Remaining()
			res, err := NewRunner(tc.rule, WithSeed(99),
				WithObserver(func(round int, c *config.Config) {
					if round > 0 && c.Slots() != prevLive {
						t.Fatalf("round %d scans %d slots, but %d colors were alive after round %d",
							round, c.Slots(), prevLive, round-1)
					}
					prevLive = c.Remaining()
				})).Run(context.Background(), tc.start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
		})
	}

	t.Run("inject-invalid", func(t *testing.T) {
		start := config.Singleton(300)
		var labels []int
		res, err := NewRunner(rules.NewVoter(), WithSeed(99), WithMaxRounds(400),
			WithAdversary(&adversary.InjectInvalid{F: 2}, 0.05, 10),
			WithObserver(func(round int, c *config.Config) {
				if c.Slots() < len(labels) {
					t.Fatalf("round %d: %d slots, had %d", round, c.Slots(), len(labels))
				}
				for s, l := range labels {
					if c.Label(s) != l {
						t.Fatalf("round %d: slot %d relabeled %d -> %d", round, s, l, c.Label(s))
					}
				}
				for s := len(labels); s < c.Slots(); s++ {
					labels = append(labels, c.Label(s))
				}
			})).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Final.Slots() != start.Slots()+1 {
			t.Fatalf("final slots %d, want the %d initial ones plus the injected color",
				res.Final.Slots(), start.Slots())
		}
		if res.Final.Remaining() >= start.Slots()/2 {
			t.Fatalf("%d of %d colors still alive: the run never exercised extinct slots",
				res.Final.Remaining(), start.Slots())
		}
	})
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	c := config.Balanced(10, 2)
	voter := func(opts ...Option) *Runner { return NewRunner(rules.NewVoter(), opts...) }
	if _, err := NewRunner(nil).Run(ctx, c); err == nil {
		t.Error("expected error: nil rule")
	}
	if _, err := voter().Run(ctx, nil); err == nil {
		t.Error("expected error: nil config")
	}
	if _, err := voter(WithMaxRounds(0)).Run(ctx, c); err == nil {
		t.Error("expected error: zero budget")
	}
	if _, err := voter(WithTargetColors(0)).Run(ctx, c); err == nil {
		t.Error("expected error: zero target")
	}
	if _, err := voter(WithColorTimes(0)).Run(ctx, c); err == nil {
		t.Error("expected error: zero kappa")
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		r := rng.New(4242)
		res, err := NewRunner(rules.NewThreeMajority(), WithRNG(r), WithTrace(1)).
			Run(context.Background(), config.Singleton(300))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Rounds, a.WinnerLabel, b.Rounds, b.WinnerLabel)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace diverged at %d: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
}

func TestRunDoesNotMutateStart(t *testing.T) {
	r := rng.New(101)
	start := config.Balanced(100, 4)
	before := start.CountsCopy()
	if _, err := NewRunner(rules.NewVoter(), WithRNG(r)).
		Run(context.Background(), start); err != nil {
		t.Fatal(err)
	}
	after := start.CountsCopy()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Run mutated the start configuration")
		}
	}
}

func TestRunAgentsVoter(t *testing.T) {
	r := rng.New(102)
	res, err := NewRunner(rules.NewVoter(), WithEngine(EngineAgents), WithRNG(r)).
		Run(context.Background(), config.Balanced(100, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Final.IsConsensus() {
		t.Fatalf("agent voter: converged=%v", res.Converged)
	}
}

func TestRunAgentsTwoChoicesKeepsOwnColor(t *testing.T) {
	r := rng.New(103)
	// From a 2-color near-balanced configuration 2-choices converges.
	res, err := NewRunner(rules.NewTwoChoices(), WithEngine(EngineAgents), WithRNG(r), WithMaxRounds(100000)).
		Run(context.Background(), config.TwoBlock(100, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("agent 2-choices did not converge on 2 colors")
	}
}

// TestAgentsMatchBatchOneRound cross-validates the agent engine against the
// exact batch law: one round from the same configuration must produce the
// same expected counts (binomial-level agreement on means).
func TestAgentsMatchBatchOneRound(t *testing.T) {
	factories := []struct {
		name string
		rule func() core.Rule
	}{
		{"voter", func() core.Rule { return rules.NewVoter() }},
		{"2-choices", func() core.Rule { return rules.NewTwoChoices() }},
		{"3-majority", func() core.Rule { return rules.NewThreeMajority() }},
		{"4-majority", func() core.Rule { return rules.NewHMajority(4) }},
		{"2-median", func() core.Rule { return rules.NewTwoMedian() }},
	}
	start := config.Zipf(300, 4, 0.9)
	const reps = 1200
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			r := rng.New(104)
			batchMeans := make([]float64, start.Slots())
			agentMeans := make([]float64, start.Slots())
			for rep := 0; rep < reps; rep++ {
				cb := start.Clone()
				f.rule().Step(cb, r)
				for s := 0; s < cb.Slots(); s++ {
					batchMeans[s] += float64(cb.Count(s))
				}
				ra, err := NewRunner(f.rule(), WithEngine(EngineAgents), WithRNG(r), WithMaxRounds(1), WithTargetColors(1)).
					Run(context.Background(), start)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < ra.Final.Slots(); s++ {
					agentMeans[s] += float64(ra.Final.Count(s))
				}
			}
			n := float64(start.N())
			for s := range batchMeans {
				b := batchMeans[s] / reps / n
				a := agentMeans[s] / reps / n
				if math.Abs(b-a) > 0.02 {
					t.Errorf("slot %d: batch mean %.4f vs agent mean %.4f", s, b, a)
				}
			}
		})
	}
}

func TestRunReplicas(t *testing.T) {
	results, err := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
		WithRNG(rng.New(105))).RunReplicas(context.Background(), config.Singleton(200), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("got %d results", len(results))
	}
	if ConvergedCount(results) != 16 {
		t.Fatalf("only %d/16 replicas converged", ConvergedCount(results))
	}
	rounds := Rounds(results)
	// Replicas must differ (independent streams).
	allSame := true
	for _, v := range rounds[1:] {
		if v != rounds[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("all replicas produced identical round counts; streams correlated?")
	}
}

func TestRunReplicasDeterministic(t *testing.T) {
	run := func() []float64 {
		results, err := NewFactoryRunner(func() core.Rule { return rules.NewVoter() },
			WithRNG(rng.New(106))).RunReplicas(context.Background(), config.Singleton(100), 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		return Rounds(results)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replica %d differs across identical seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunReplicasErrors(t *testing.T) {
	ctx := context.Background()
	c := config.Balanced(10, 2)
	factory := func() core.Rule { return rules.NewVoter() }
	if _, err := NewFactoryRunner(nil).RunReplicas(ctx, c, 2, 1); err == nil {
		t.Error("expected error: nil factory")
	}
	if _, err := NewFactoryRunner(factory).RunReplicas(ctx, c, 0, 1); err == nil {
		t.Error("expected error: zero replicas")
	}
	if _, err := NewFactoryRunner(factory, WithMaxRounds(-1)).RunReplicas(ctx, c, 2, 1); err == nil {
		t.Error("expected error: invalid option")
	}
}

func TestColorTimesExtraction(t *testing.T) {
	results := []*Result{
		{ColorTimes: map[int]int{5: 10}},
		{ColorTimes: map[int]int{}},
		{ColorTimes: map[int]int{5: 20}},
	}
	times, all := ColorTimes(results, 5)
	if all {
		t.Error("second replica missed κ=5; allReached should be false")
	}
	if len(times) != 2 || times[0] != 10 || times[1] != 20 {
		t.Errorf("times = %v", times)
	}
}

func TestUndecidedRunBudgeted(t *testing.T) {
	r := rng.New(108)
	// The undecided slot participates in Remaining, so target 1 means all
	// nodes decided on one color with no undecided nodes left.
	res, err := NewRunner(rules.NewUndecided(), WithRNG(r), WithMaxRounds(100000)).
		Run(context.Background(), config.Balanced(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("undecided dynamics did not converge on 3 balanced colors")
	}
	if res.WinnerLabel == rules.UndecidedLabel {
		t.Fatal("winner is the undecided pseudo-color")
	}
}
