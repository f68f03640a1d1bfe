package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
)

// The hybrid engine's contract (DESIGN.md §8) has two halves, and this
// suite pins both. Where fast-forward cannot engage — Voter's driftless
// map, any adversarial run — hybrid must be BIT-identical to batch: the
// planner consumes no randomness, so the falls-back-every-round engine
// replays the exact batch stream. Where it does engage, equality is
// distributional and is asserted with the same KS/chi-square machinery
// the sharded engines are held to, at stats.DefaultEquivalenceAlpha.
// All runs are seeded: the suite cannot flake, only regress.

func hybridRunner(factory core.Factory, opts ...Option) *Runner {
	return NewFactoryRunner(factory, append([]Option{WithEngine(EngineHybrid)}, opts...)...)
}

// tunedHybridRunner is hybridRunner planning under tun instead of the
// fixed default tuning.
func tunedHybridRunner(factory core.Factory, tun ffTuning, opts ...Option) *Runner {
	rn := hybridRunner(factory, opts...)
	rn.o.ff = tun
	return rn
}

// TestHybridVoterBitIdenticalToBatch: Voter's mean-field map is the
// identity — all of its progress is noise, which is exactly what the
// paper says cannot be fast-forwarded. The drift-dominance criterion
// must therefore reject every stretch and leave a bit-identical run.
func TestHybridVoterBitIdenticalToBatch(t *testing.T) {
	start := config.TwoBlock(2000, 600)
	for seed := uint64(500); seed < 505; seed++ {
		hy, err := hybridRunner(func() core.Rule { return rules.NewVoter() }, WithSeed(seed)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := NewRunner(rules.NewVoter(), WithSeed(seed)).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if hy.Rounds != ba.Rounds || hy.WinnerLabel != ba.WinnerLabel {
			t.Fatalf("seed %d: hybrid (rounds=%d winner=%d) differs from batch (rounds=%d winner=%d)",
				seed, hy.Rounds, hy.WinnerLabel, ba.Rounds, ba.WinnerLabel)
		}
		if hy.FastForward == nil || hy.FastForward.SkippedRounds != 0 || len(hy.FastForward.Stretches) != 0 {
			t.Fatalf("seed %d: Voter must never fast-forward, report %+v", seed, hy.FastForward)
		}
		if hy.FastForward.ExactRounds != hy.Rounds {
			t.Fatalf("seed %d: exact rounds %d != rounds %d", seed, hy.FastForward.ExactRounds, hy.Rounds)
		}
	}
}

// TestHybridAdversaryBitIdenticalToBatch: per-round corruption cannot be
// certified, so an adversary disables eligibility entirely and the §5
// stabilization run must come out bit-identical to batch.
func TestHybridAdversaryBitIdenticalToBatch(t *testing.T) {
	start := config.Balanced(2000, 4)
	for seed := uint64(600); seed < 604; seed++ {
		mk := func(engine Engine) *Result {
			t.Helper()
			res, err := NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
				WithEngine(engine),
				WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
				WithMaxRounds(5000),
				WithSeed(seed)).Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		hy, ba := mk(EngineHybrid), mk(EngineBatch)
		if hy.Rounds != ba.Rounds || hy.WinnerLabel != ba.WinnerLabel ||
			hy.Corrupted != ba.Corrupted || hy.Stable != ba.Stable ||
			hy.AlmostConsensusRound != ba.AlmostConsensusRound {
			t.Fatalf("seed %d: adversarial hybrid diverged from batch:\nhybrid %+v\nbatch  %+v", seed, hy, ba)
		}
		if hy.FastForward.SkippedRounds != 0 {
			t.Fatalf("seed %d: adversarial run skipped %d rounds", seed, hy.FastForward.SkippedRounds)
		}
	}
}

// TestHybridMatchesBatchDistribution: in the biased regime real
// stretches engage (asserted, so the test cannot pass vacuously), and
// the round and winner distributions must remain statistically
// equivalent to the exact batch law — the ISSUE acceptance criterion.
// 5-majority needs n = 10⁸: its Lipschitz bound of 5 inflates the
// envelope ~150× across a default 4-round stretch, so only the smaller
// step noise of a larger population fits inside the certified gap. The
// engines are aggregate, so the larger n costs nothing.
func TestHybridMatchesBatchDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional comparison at n=1e6..1e8")
	}
	const reps = 100
	for _, tc := range []struct {
		name    string
		n       int
		factory core.Factory
	}{
		{"3-majority", 1_000_000, func() core.Rule { return rules.NewThreeMajority() }},
		{"5-majority", 100_000_000, func() core.Rule { return rules.NewHMajority(5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := config.TwoBlock(tc.n, tc.n/2+tc.n/2000)
			collect := func(rn *Runner, seed uint64) (times []float64, wins []int, skipped int) {
				times = make([]float64, reps)
				wins = make([]int, 2)
				for i := 0; i < reps; i++ {
					res, err := rn.with(WithSeed(seed+uint64(i))).Run(context.Background(), start)
					if err != nil {
						t.Fatal(err)
					}
					times[i] = float64(res.Rounds)
					wins[res.WinnerLabel]++
					if res.FastForward != nil {
						skipped += res.FastForward.SkippedRounds
					}
				}
				return times, wins, skipped
			}
			hyTimes, hyWins, skipped := collect(hybridRunner(tc.factory), 41000)
			baTimes, baWins, _ := collect(NewFactoryRunner(tc.factory), 42000)

			if skipped == 0 {
				t.Fatalf("no rounds were fast-forwarded at n=%d: the comparison is vacuous", tc.n)
			}
			ks, err := stats.TwoSampleKS(hyTimes, baTimes)
			if err != nil {
				t.Fatal(err)
			}
			if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
				t.Errorf("round distributions differ: D=%.3f p=%.2g (hybrid skipped %d rounds total)",
					ks.D, ks.P, skipped)
			}
			chi, err := stats.ChiSquareHomogeneity(hyWins, baWins)
			if err != nil {
				t.Fatal(err)
			}
			if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
				t.Errorf("winner distributions differ: hybrid=%v batch=%v stat=%.2f p=%.2g",
					hyWins, baWins, chi.Stat, chi.P)
			}
		})
	}
}

// TestHybridRoundsAccounting: virtual rounds must balance — every round
// is either exact or inside exactly one stretch, every stretch respects
// minStretch, and MaxEnvelope is the max over stretch exits.
func TestHybridRoundsAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("engagement needs n=1e6")
	}
	start := config.TwoBlock(1_000_000, 500_500)
	res, err := hybridRunner(func() core.Rule { return rules.NewThreeMajority() },
		WithSeed(321)).Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FastForward
	if rep == nil {
		t.Fatal("hybrid run returned no fast-forward report")
	}
	if rep.ExactRounds+rep.SkippedRounds != res.Rounds {
		t.Fatalf("accounting broken: exact %d + skipped %d != rounds %d",
			rep.ExactRounds, rep.SkippedRounds, res.Rounds)
	}
	sum, maxEnv := 0, 0.0
	for _, s := range rep.Stretches {
		if s.Rounds < defaultFFTuning.minStretch {
			t.Errorf("stretch at round %d has %d rounds, below minStretch", s.StartRound, s.Rounds)
		}
		if s.ExitEnvelope <= 0 {
			t.Errorf("stretch at round %d has non-positive envelope %g", s.StartRound, s.ExitEnvelope)
		}
		sum += s.Rounds
		if s.ExitEnvelope > maxEnv {
			maxEnv = s.ExitEnvelope
		}
	}
	if sum != rep.SkippedRounds {
		t.Fatalf("stretches sum to %d rounds, report says %d", sum, rep.SkippedRounds)
	}
	if maxEnv != rep.MaxEnvelope {
		t.Fatalf("max stretch envelope %g, report says %g", maxEnv, rep.MaxEnvelope)
	}
	if rep.SkippedRounds == 0 {
		t.Fatal("expected the biased n=1e6 run to fast-forward")
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
}

// TestHybridReportWorkerIndependent: the engine is aggregate, so the
// worker count must not change a single bit of the result — including
// the stretch-by-stretch report.
func TestHybridReportWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("engagement needs n=1e6")
	}
	start := config.TwoBlock(1_000_000, 500_500)
	runAt := func(p int) *Result {
		t.Helper()
		res, err := hybridRunner(func() core.Rule { return rules.NewThreeMajority() },
			WithSeed(777), WithParallelism(p)).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := runAt(1)
	for _, p := range []int{2, 4, 8} {
		got := runAt(p)
		if got.Rounds != base.Rounds || got.WinnerLabel != base.WinnerLabel {
			t.Fatalf("p=%d: rounds/winner (%d, %d) differ from p=1 (%d, %d)",
				p, got.Rounds, got.WinnerLabel, base.Rounds, base.WinnerLabel)
		}
		if !reflect.DeepEqual(got.FastForward, base.FastForward) {
			t.Fatalf("p=%d: fast-forward report differs:\n%+v\nvs\n%+v", p, got.FastForward, base.FastForward)
		}
	}
}

// planLen runs the stretch planner once against start under the given
// tuning and returns the certified stretch length.
func planLen(t *testing.T, rule core.Rule, start *config.Config, tun ffTuning) int {
	t.Helper()
	o, err := buildOptions([]Option{WithEngine(EngineHybrid)})
	if err != nil {
		t.Fatal(err)
	}
	o.ff = tun
	ctl := newFFController(rule, start.Clone(), rng.New(1), o)
	if !ctl.eligible {
		t.Fatalf("rule %q unexpectedly ineligible", rule.Name())
	}
	return ctl.plan(1)
}

// TestFastForwardTuningMonotonicity: the certified stretch length is not
// monotone in the *state* (drift vanishes near consensus), but it must be
// monotone in the *tuning*: tightening any safety knob can only shorten
// the stretch, loosening the failure budget can only lengthen it.
func TestFastForwardTuningMonotonicity(t *testing.T) {
	start := config.TwoBlock(1_000_000, 620_000)
	rule := rules.NewThreeMajority()
	tuned := func(change func(*ffTuning)) ffTuning {
		tun := defaultFFTuning
		change(&tun)
		return tun
	}
	base := planLen(t, rule, start, defaultFFTuning)
	if base <= 0 {
		t.Fatalf("planner certified no stretch from a wide-gap state (got %d); monotonicity test is vacuous", base)
	}
	if got := planLen(t, rule, start, tuned(func(f *ffTuning) { f.gapFactor = 64 })); got > base {
		t.Errorf("stretch grew from %d to %d when the gap margin tightened", base, got)
	}
	if got := planLen(t, rule, start, tuned(func(f *ffTuning) { f.driftFactor = 64 })); got > base {
		t.Errorf("stretch grew from %d to %d when the drift criterion tightened", base, got)
	}
	if got := planLen(t, rule, start, tuned(func(f *ffTuning) { f.delta = 1e-6 })); got < base {
		t.Errorf("stretch shrank from %d to %d when the failure budget loosened", base, got)
	}
	if got := planLen(t, rule, start, tuned(func(f *ffTuning) { f.extinctionFloor = 1e5 })); got > base {
		t.Errorf("stretch grew from %d to %d when the extinction floor rose", base, got)
	}
}

// TestHybridEligibility: the run-level gate. 2-Choices shares Eq. 2's
// expectation but its one-round law is not the multinomial the envelope
// certifies, so it does not implement core.MeanFielder; observers and
// stop predicates are arbitrary per-round observables.
func TestHybridEligibility(t *testing.T) {
	c := config.Balanced(1000, 2)
	mk := func(rule core.Rule, opts ...Option) *ffController {
		t.Helper()
		o, err := buildOptions(append([]Option{WithEngine(EngineHybrid)}, opts...))
		if err != nil {
			t.Fatal(err)
		}
		return newFFController(rule, c.Clone(), rng.New(1), o)
	}
	if !mk(rules.NewThreeMajority()).eligible {
		t.Error("3-majority must be eligible")
	}
	if !mk(rules.NewHMajority(7)).eligible {
		t.Error("7-majority must be eligible")
	}
	if mk(rules.NewTwoChoices()).eligible {
		t.Error("2-Choices must be ineligible: its round law is not the exact multinomial")
	}
	if mk(rules.NewThreeMajority(), WithObserver(func(int, *config.Config) {})).eligible {
		t.Error("an observer must disable fast-forward")
	}
	if mk(rules.NewThreeMajority(), WithStopWhen(func(int, *config.Config) bool { return false })).eligible {
		t.Error("a stop predicate must disable fast-forward")
	}
}

// TestHybridPlannerZeroAllocs: plan and safe run on every round of every
// hybrid run; after the first call warms the planning buffers they must
// not allocate (AllocsPerRun must be 0 in steady state).
func TestHybridPlannerZeroAllocs(t *testing.T) {
	o, err := buildOptions([]Option{WithEngine(EngineHybrid)})
	if err != nil {
		t.Fatal(err)
	}
	c := config.TwoBlock(1_000_000, 620_000)
	ctl := newFFController(rules.NewThreeMajority(), c, rng.New(1), o)
	if ctl.plan(1) <= 0 { // warm the buffers; safe runs inside plan
		t.Fatal("planner certified no stretch; the steady state is unexercised")
	}
	sink := 0
	if avg := testing.AllocsPerRun(100, func() {
		sink += ctl.plan(1)
	}); avg != 0 {
		t.Errorf("plan allocates %.2f times per call in steady state, want 0", avg)
	}
	_ = sink
}

// FuzzFastForward: across arbitrary populations, biases and tunings the
// hybrid engine must never panic, must be deterministic (same seed →
// same run, same stretch decisions), must be worker-independent, and
// must keep the virtual-round accounting balanced.
func FuzzFastForward(f *testing.F) {
	f.Add(uint64(1), uint16(2000), uint8(2), uint8(50), uint8(16), uint8(8))
	f.Add(uint64(99), uint16(60000), uint8(4), uint8(200), uint8(3), uint8(1))
	f.Add(uint64(7), uint16(300), uint8(9), uint8(0), uint8(31), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, kRaw, biasRaw, gapRaw, driftRaw uint8) {
		n := 200 + int(nRaw)
		k := 2 + int(kRaw)%7
		bias := int(biasRaw) * (n / 2) / 256
		start := config.Biased(n, k, bias)
		tun := defaultFFTuning
		tun.minStretch = 1 + int(gapRaw)%8
		tun.gapFactor = float64(1 + int(gapRaw)%32)
		tun.driftFactor = float64(1 + int(driftRaw)%16)
		tun.delta = 1e-9
		var factory core.Factory = func() core.Rule { return rules.NewThreeMajority() }
		if kRaw&8 != 0 {
			factory = func() core.Rule { return rules.NewHMajority(5) }
		}
		run := func(p int) *Result {
			res, err := tunedHybridRunner(factory, tun, WithMaxRounds(2000),
				WithSeed(seed), WithParallelism(p)).Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(1), run(1)
		if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel {
			t.Fatalf("same seed diverged: (%d, %d) vs (%d, %d)", a.Rounds, a.WinnerLabel, b.Rounds, b.WinnerLabel)
		}
		if !reflect.DeepEqual(a.FastForward, b.FastForward) {
			t.Fatalf("same seed produced different stretch decisions:\n%+v\nvs\n%+v", a.FastForward, b.FastForward)
		}
		c := run(4)
		if c.Rounds != a.Rounds || !reflect.DeepEqual(c.FastForward, a.FastForward) {
			t.Fatalf("worker count changed the run: p=4 (%d rounds, %+v) vs p=1 (%d rounds, %+v)",
				c.Rounds, c.FastForward, a.Rounds, a.FastForward)
		}
		rep := a.FastForward
		if rep == nil {
			t.Fatal("hybrid run returned no report")
		}
		if rep.ExactRounds+rep.SkippedRounds != a.Rounds {
			t.Fatalf("accounting broken: exact %d + skipped %d != rounds %d", rep.ExactRounds, rep.SkippedRounds, a.Rounds)
		}
		sum := 0
		for _, s := range rep.Stretches {
			if s.Rounds < tun.minStretch {
				t.Fatalf("stretch of %d rounds below minStretch %d", s.Rounds, tun.minStretch)
			}
			sum += s.Rounds
		}
		if sum != rep.SkippedRounds {
			t.Fatalf("stretches sum to %d, report says %d", sum, rep.SkippedRounds)
		}
	})
}

// doneAfterCtx is a context that is cancelled from its cancelAt-th Done
// poll on. It makes "cancel during a fast-forward stretch" deterministic:
// the run loop polls Done once before the loop and once per round, and
// the planner polls it once per extension iteration, so cancelAt lands
// the cancellation at an exact poll — no goroutines, no timing. Err
// agrees with Done, as every context's must.
type doneAfterCtx struct {
	context.Context
	polls    int
	cancelAt int
}

// closedDone is the Done channel of a cancelled doneAfterCtx.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *doneAfterCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls >= c.cancelAt {
		return closedDone
	}
	return nil
}

func (c *doneAfterCtx) Err() error {
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestHybridCancelMidStretchReturnsCompletedWork is the regression test
// for cancellation observed mid-stretch: cancelling while the planner is
// extending a fast-forward stretch must (a) stop the planning loop
// promptly instead of running it to maxStretch, (b) still commit the
// already-certified prefix, and (c) return the partial Result for the
// work completed so far alongside the error — the single-run mirror of
// TestRunReplicasReturnsCompletedWorkOnLateCancel.
func TestHybridCancelMidStretchReturnsCompletedWork(t *testing.T) {
	// A mildly-biased large start under loosened tuning: the first stretch
	// certifies 7 rounds, long enough to land a cancellation inside it.
	start := config.TwoBlock(10_000_000, 4_500_000)
	tun := ffTuning{minStretch: 2, maxStretch: 65536, delta: 1e-3, gapFactor: 1, driftFactor: 0.5, extinctionFloor: 1}
	mk := func() *Runner {
		return tunedHybridRunner(func() core.Rule { return rules.NewThreeMajority() }, tun, WithSeed(42))
	}

	// Precondition: uncancelled, the run fast-forwards immediately and its
	// first stretch is long enough to land a cancellation inside.
	full, err := mk().Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if full.FastForward == nil || len(full.FastForward.Stretches) == 0 {
		t.Fatalf("precondition: uncancelled run took no stretch: %+v", full.FastForward)
	}
	first := full.FastForward.Stretches[0]
	if first.StartRound != 1 {
		t.Fatalf("precondition: first stretch starts at round %d, want 1", first.StartRound)
	}
	if first.Rounds < 4 {
		t.Fatalf("precondition: first stretch of %d rounds is too short to cancel inside", first.Rounds)
	}

	// Done polls: 1 = pre-loop, 2 = round 1, then one per planning
	// iteration — cancelAt 5 cancels at the third extension of the first
	// stretch, after two rounds were certified.
	ctx := &doneAfterCtx{Context: context.Background(), cancelAt: 5}
	res, err := mk().Run(ctx, start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("mid-stretch cancellation discarded the completed work; want the partial Result")
	}
	rep := res.FastForward
	if rep == nil || len(rep.Stretches) != 1 {
		t.Fatalf("partial result lost its fast-forward report: %+v", rep)
	}
	got := rep.Stretches[0].Rounds
	if got < tun.minStretch || got >= first.Rounds {
		t.Fatalf("cancelled stretch covers %d rounds, want in [%d, %d): planning must stop at the cancellation and keep only the certified prefix",
			got, tun.minStretch, first.Rounds)
	}
	if res.Rounds != rep.ExactRounds+rep.SkippedRounds {
		t.Fatalf("partial accounting broken: rounds %d != exact %d + skipped %d",
			res.Rounds, rep.ExactRounds, rep.SkippedRounds)
	}
	// Promptness: after the cancelling poll, the run may observe the
	// cancellation at most once more (the next round boundary) before
	// returning.
	if ctx.polls > ctx.cancelAt+1 {
		t.Fatalf("run kept polling after cancellation: %d Done polls, cancel at %d", ctx.polls, ctx.cancelAt)
	}

	// A context cancelled before the run starts still returns no result.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := mk().Run(pre, start); err == nil || res != nil {
		t.Fatalf("pre-cancelled run returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
}
