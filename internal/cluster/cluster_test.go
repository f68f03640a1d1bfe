package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// okFactory adapts a plain rule constructor to the checked factory shape.
func okFactory(mk func() core.NodeRule) func() (core.NodeRule, error) {
	return func() (core.NodeRule, error) { return mk(), nil }
}

// runSystem drives a System to consensus or a round budget, the way the
// sim Runner does, and reports the outcome.
func runSystem(t *testing.T, factory func() (core.NodeRule, error), start *config.Config, seed uint64, maxRounds int, opts Options) (rounds int, converged bool, sys *System) {
	t.Helper()
	sys, err := NewSystem(factory, start, rng.New(seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if sys.Config().IsConsensus() {
		return 0, true, sys
	}
	for round := 1; round <= maxRounds; round++ {
		sys.Step()
		if sys.Config().IsConsensus() {
			return round, true, sys
		}
	}
	return maxRounds, false, sys
}

func TestSystemVoterConsensus(t *testing.T) {
	_, converged, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewVoter() }),
		config.Balanced(60, 3), 201, 100000, Options{})
	if !converged {
		t.Fatal("cluster voter did not converge")
	}
	if !sys.Config().IsConsensus() {
		t.Fatalf("final not consensus: %v", sys.Config())
	}
	slot, _ := sys.Config().Max()
	if label := sys.Config().Label(slot); label < 0 || label > 2 {
		t.Fatalf("winner label %d", label)
	}
}

func TestSystemThreeMajorityConsensus(t *testing.T) {
	_, converged, _ := runSystem(t, okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
		config.Singleton(80), 202, 100000, Options{})
	if !converged {
		t.Fatal("cluster 3-majority did not converge from n colors")
	}
}

// TestSystemMessageAccounting: messages are counted where they happen —
// requests at fire, responses at serve — so a lossless run exchanges
// exactly 2·n·h messages per round, under the lockstep model and under a
// uniform fixed delay alike.
func TestSystemMessageAccounting(t *testing.T) {
	for name, opts := range map[string]Options{
		"zero":        {},
		"fixed-delay": {Model: &Net{Delay: 2}},
		"two-workers": {Workers: 2},
	} {
		t.Run(name, func(t *testing.T) {
			rounds, converged, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
				config.Balanced(40, 2), 203, 100000, opts)
			if !converged {
				t.Fatal("did not converge")
			}
			want := int64(rounds) * 40 * 3 * 2
			if got := sys.Messages(); got != want {
				t.Fatalf("Messages = %d, want exactly 2·n·h·rounds = %d (rounds=%d)", got, want, rounds)
			}
		})
	}
}

func TestSystemBitsPerMessage(t *testing.T) {
	_, _, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewVoter() }),
		config.Balanced(20, 5), 204, 100000, Options{})
	if sys.BitsPerMessage() != 3 { // ceil(log2 5) = 3
		t.Fatalf("BitsPerMessage = %d, want 3", sys.BitsPerMessage())
	}
}

func TestSystemAlreadyConsensus(t *testing.T) {
	rounds, converged, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewVoter() }),
		config.Consensus(30), 205, 10, Options{})
	if !converged || rounds != 0 || sys.Messages() != 0 {
		t.Fatalf("consensus start: rounds=%d messages=%d", rounds, sys.Messages())
	}
}

func TestSystemBudgetExhaustion(t *testing.T) {
	// 2-choices from many singleton colors cannot finish in 2 rounds.
	rounds, converged, _ := runSystem(t, okFactory(func() core.NodeRule { return rules.NewTwoChoices() }),
		config.Singleton(50), 206, 2, Options{})
	if converged {
		t.Fatal("should not converge in 2 rounds")
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
}

func TestNewSystemErrors(t *testing.T) {
	c := config.Balanced(10, 2)
	base := rng.New(1)
	voterFactory := okFactory(func() core.NodeRule { return rules.NewVoter() })
	if _, err := NewSystem(nil, c, base, Options{}); err == nil {
		t.Error("expected error: nil factory")
	}
	if _, err := NewSystem(voterFactory, nil, base, Options{}); err == nil {
		t.Error("expected error: nil start")
	}
	if _, err := NewSystem(voterFactory, c, nil, Options{}); err == nil {
		t.Error("expected error: nil rng")
	}
	if _, err := NewSystem(okFactory(func() core.NodeRule { return nil }), c, base, Options{}); err == nil {
		t.Error("expected error: factory returning nil")
	}
	// A factory that degrades on a later instantiation fails construction
	// with an error instead of panicking mid-run.
	calls := 0
	flaky := func() (core.NodeRule, error) {
		calls++
		if calls > 1 {
			return nil, nil
		}
		return rules.NewVoter(), nil
	}
	if _, err := NewSystem(flaky, c, base, Options{Workers: 2}); err == nil {
		t.Error("expected error: factory returning nil on a later call")
	}
	if _, err := NewSystem(voterFactory, c, base, Options{Model: &Net{Loss: 1}}); err == nil {
		t.Error("expected error: loss 1 can never complete a pull")
	}
	if _, err := NewSystem(voterFactory, c, base, Options{Model: &Net{Delay: -1}}); err == nil {
		t.Error("expected error: negative delay")
	}
	if _, err := NewSystem(voterFactory, c, base, Options{Model: &Net{Partitions: []Partition{{From: 5, Until: 3, Groups: 2}}}}); err == nil {
		t.Error("expected error: inverted partition window")
	}
	if _, err := NewSystem(voterFactory, c, base, Options{Model: &Net{Partitions: []Partition{{From: 0, Until: 3, Groups: 1}}}}); err == nil {
		t.Error("expected error: single-group partition")
	}
}

func TestCloseIdempotent(t *testing.T) {
	for _, workers := range []int{1, 3} {
		sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewVoter() }),
			config.Balanced(8, 2), rng.New(1), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
		sys.Close()
	}
}

func TestSystemInvariantPreserved(t *testing.T) {
	for name, opts := range map[string]Options{
		"zero":    {},
		"latency": {Model: &Net{Delay: 1, Jitter: 2}},
		"loss":    {Model: &Net{Loss: 0.2}},
	} {
		t.Run(name, func(t *testing.T) {
			_, converged, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewTwoChoices() }),
				config.TwoBlock(60, 20), 207, 100000, opts)
			if !converged {
				t.Fatal("did not converge")
			}
			if err := sys.Config().CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if sys.Config().N() != 60 {
				t.Fatalf("node count changed: %d", sys.Config().N())
			}
		})
	}
}

// TestSystemDeterministic: fixed (seed, workers) reproduces a run bit for
// bit — colors, counts, messages, rounds — for every model, including the
// ones that consume network randomness.
func TestSystemDeterministic(t *testing.T) {
	models := map[string]func() Options{
		"zero":         func() Options { return Options{} },
		"zero/p4":      func() Options { return Options{Workers: 4} },
		"jitter":       func() Options { return Options{Model: &Net{Delay: 1, Jitter: 3}} },
		"loss":         func() Options { return Options{Model: &Net{Loss: 0.3}, Workers: 2} },
		"partitioned":  func() Options { return Options{Model: &Net{Partitions: []Partition{{From: 2, Until: 6, Groups: 2}}}} },
		"full-network": func() Options { return Options{Model: &Net{Delay: 1, Jitter: 1, Loss: 0.1, Retry: 2}, Workers: 3} },
	}
	for name, mk := range models {
		t.Run(name, func(t *testing.T) {
			run := func() ([]int, int64) {
				sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
					config.Balanced(120, 5), rng.New(777), mk())
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				for i := 0; i < 20; i++ {
					sys.Step()
				}
				colors := append([]int(nil), sys.Colors()...)
				return colors, sys.Messages()
			}
			c1, m1 := run()
			c2, m2 := run()
			if m1 != m2 {
				t.Fatalf("messages diverge: %d vs %d", m1, m2)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Fatal("per-node colors diverge between identical runs")
			}
		})
	}
}

// TestSystemLargeLatency: the queue's memory follows pending events, not
// the model's largest latency, and virtual time may wrap around int64.
// With no jitter and no loss every leg takes exactly Delay ticks and
// draws nothing, so a run is the same for every Delay >= 1: Delay 2^40 —
// every event far beyond the ring, time jumping from leg to leg — and
// Delay 2^61-1, whose run passes a few ticks below MaxInt64 and wraps,
// must reproduce Delay 1 node for node.
// With Retry = Delay and jitter far below Delay, an event's tick is its
// count of legs and retries times Delay plus a small remainder, so events
// order the same for any such Delay: 2^61-1 must reproduce 2^40, with many
// far ticks pending across the wrap. The ring stays at most maxSpan slots
// and the far buckets at most one per pending leg.
func TestSystemLargeLatency(t *testing.T) {
	const n, h, steps = 300, 3, 8
	run := func(t *testing.T, model Model, workers int) ([]int, int64, *System) {
		sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
			config.Balanced(n, 6), rng.New(991), Options{Model: model, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		for i := 0; i < steps; i++ {
			sys.Step()
		}
		return append([]int(nil), sys.Colors()...), sys.Messages(), sys
	}
	lossy := func(delay int64) *Net { return &Net{Delay: delay, Jitter: 3000, Loss: 0.1, Retry: delay} }
	cases := []struct {
		name       string
		ref, model *Net
	}{
		{"delay-2^40", &Net{Delay: 1}, &Net{Delay: 1 << 40}},
		{"delay-2^61-1", &Net{Delay: 1}, &Net{Delay: 1<<61 - 1}},
		{"jitter-loss-2^61-1", lossy(1 << 40), lossy(1<<61 - 1)},
	}
	for _, p := range []int{1, 2} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("p%d/%s", p, c.name), func(t *testing.T) {
				want, wantMsgs, _ := run(t, c.ref, p)
				got, gotMsgs, sys := run(t, c.model, p)
				if gotMsgs != wantMsgs || !reflect.DeepEqual(got, want) {
					t.Fatalf("diverges from its reference: messages %d vs %d", gotMsgs, wantMsgs)
				}
				// A lockstep round takes two legs and the wake tick; the
				// last ends one tick before its successor's wake.
				d := uint64(c.model.Delay)
				if ticks := steps*(2*d+1) - 1; c.ref.Delay == 1 && uint64(sys.now) != ticks {
					t.Errorf("tick %d after %d rounds of two %d-tick legs, want %d", sys.now, steps, d, int64(ticks))
				}
				if len(sys.queue.ring) > maxSpan {
					t.Errorf("ring of %d slots, want <= %d", len(sys.queue.ring), maxSpan)
				}
				if k := len(sys.queue.far) + len(sys.queue.spare); k > n*h {
					t.Errorf("%d far and spare buckets, want <= %d (one per pending leg)", k, n*h)
				}
			})
		}
	}
}

// TestSystemLossyStillConverges: i.i.d. loss with pull retry must not
// stall the process — every round's pulls eventually complete.
func TestSystemLossyStillConverges(t *testing.T) {
	rounds, converged, sys := runSystem(t, okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
		config.Balanced(80, 4), 208, 100000, Options{Model: &Net{Loss: 0.3, Retry: 1}})
	if !converged {
		t.Fatal("lossy cluster did not converge")
	}
	// Retries resend requests, so a lossy run must send strictly more
	// than the lossless 2·n·h per round.
	if sys.Messages() <= int64(rounds)*80*3*2 {
		t.Fatalf("messages = %d over %d rounds: loss induced no retries?", sys.Messages(), rounds)
	}
}

// TestSystemPartitionHeals: during a 2-group split no pull crosses the
// blocks, so the two halves run their own processes; after Until the
// population can reach global consensus again.
func TestSystemPartitionHeals(t *testing.T) {
	// Two blocks holding distinct colors: while partitioned, each block is
	// internally unanimous and stays that way; consensus needs the heal.
	start := config.TwoBlock(64, 32)
	model := &Net{Partitions: []Partition{{From: 0, Until: 30, Groups: 2}}}
	sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewVoter() }),
		start, rng.New(209), Options{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for round := 1; round <= 25; round++ {
		sys.Step()
		if sys.Config().IsConsensus() {
			t.Fatalf("consensus at round %d, inside the partition window", round)
		}
	}
	for round := 26; round <= 100000; round++ {
		sys.Step()
		if sys.Config().IsConsensus() {
			return
		}
	}
	t.Fatal("no consensus after the partition healed")
}

// TestClusterMatchesBatchOneRound cross-validates the event-driven
// runtime against the exact batch law: single-round mean fractions must
// agree for an AC rule.
func TestClusterMatchesBatchOneRound(t *testing.T) {
	start := config.Zipf(60, 3, 1.0)
	const reps = 400
	clusterMeans := make([]float64, start.Slots())
	batchMeans := make([]float64, start.Slots())
	r := rng.New(208)
	for rep := 0; rep < reps; rep++ {
		sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
			start, rng.New(uint64(1000+rep)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys.Step()
		for s := 0; s < sys.Config().Slots(); s++ {
			clusterMeans[s] += float64(sys.Config().Count(s))
		}
		sys.Close()

		cb := start.Clone()
		rules.NewThreeMajority().Step(cb, r)
		for s := 0; s < cb.Slots(); s++ {
			batchMeans[s] += float64(cb.Count(s))
		}
	}
	n := float64(start.N())
	for s := range clusterMeans {
		cm := clusterMeans[s] / reps / n
		bm := batchMeans[s] / reps / n
		if math.Abs(cm-bm) > 0.03 {
			t.Errorf("slot %d: cluster mean %.4f vs batch mean %.4f", s, cm, bm)
		}
	}
}

// TestSystemZeroSteadyStateAllocs: a steady-state round under the Zero
// model must not allocate — buckets are recycled, lanes reuse their
// buffers. Every pull resolves on the spot: runWakes fires it through
// firePull, serve and deliver, and applyLane folds the lanes at the tick
// barrier.
func TestSystemZeroSteadyStateAllocs(t *testing.T) {
	sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
		config.Balanced(2048, 4), rng.New(210), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 5; i++ {
		sys.Step() // reach steady state
	}
	if avg := testing.AllocsPerRun(20, func() { sys.Step() }); avg != 0 {
		t.Errorf("zero-latency Step allocates %.2f times, want 0", avg)
	}
}

// TestEventRoundZeroSteadyStateAllocs: the same contract for the
// event-driven path — runWakes fans rounds out through firePull, requests
// are answered by serve and deliver, every delayed or retried leg is
// scheduled through emit, and applyLane folds the lanes at the tick
// barrier. Delay, jitter and loss together force every one of those
// //consensus:hotpath functions onto the measured path. One worker
// emits straight into the queue; two defer their events to the barrier's
// merge, so both lane paths are measured.
func TestEventRoundZeroSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sys, err := NewSystem(okFactory(func() core.NodeRule { return rules.NewThreeMajority() }),
			config.Balanced(1024, 4), rng.New(211),
			Options{Model: &Net{Delay: 2, Jitter: 1, Loss: 0.05, Retry: 3}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			sys.Step() // grow buckets and lane buffers to steady state
		}
		if avg := testing.AllocsPerRun(20, func() { sys.Step() }); avg != 0 {
			t.Errorf("workers = %d: event-driven Step allocates %.2f times, want 0", workers, avg)
		}
		sys.Close()
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct {
		k    int
		want int
	}{
		{k: 1, want: 1},
		{k: 2, want: 1},
		{k: 3, want: 2},
		{k: 4, want: 2},
		{k: 5, want: 3},
		{k: 1024, want: 10},
		{k: 1025, want: 11},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.k); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}
