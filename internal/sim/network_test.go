package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
)

// The event-driven network engine's correctness and reproducibility
// contract, at the Runner level:
//
//   - under the zero-latency lockstep model it simulates the paper's
//     synchronous rounds, so its consensus-time and winner distributions
//     must be statistically indistinguishable from the exact batch law,
//     with and without a §5 adversary (KS + chi-square at
//     stats.DefaultEquivalenceAlpha, per the DESIGN.md §3 policy);
//   - fixed (seed, workers) reproduces a run bit for bit on every network
//     model — the contract the other engines have had since PR 2;
//   - it multiplexes any population over a fixed worker pool: no 100k cap
//     and zero per-round goroutine spawns (the n = 10⁶ acceptance run).
//
// All runs are seeded, so the suite is deterministic: it cannot flake,
// only regress.

// collectRuns gathers consensus times and winner tallies over seeded runs.
func collectRuns(t *testing.T, rn *Runner, start *config.Config, k, reps int, seed uint64) (rounds []float64, wins []int) {
	t.Helper()
	wins = make([]int, k)
	for i := 0; i < reps; i++ {
		res, err := rn.with(WithSeed(seed+uint64(i))).Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, float64(res.Rounds))
		if res.WinnerLabel >= 0 && res.WinnerLabel < k {
			wins[res.WinnerLabel]++
		}
	}
	return rounds, wins
}

// TestNetworkEngineMatchesBatchDistribution cross-validates the network
// engine against the batch engine under the zero-latency model: same
// workload, indistinguishable consensus-time and winner distributions.
func TestNetworkEngineMatchesBatchDistribution(t *testing.T) {
	const (
		n    = 256
		k    = 8
		reps = 90
	)
	start := config.Balanced(n, k)
	factory := func() core.Rule { return rules.NewThreeMajority() }
	batch := NewFactoryRunner(factory)
	for name, opts := range map[string][]Option{
		"p1": {WithEngine(EngineCluster), WithParallelism(1)},
		"p4": {WithEngine(EngineCluster), WithParallelism(4)},
	} {
		t.Run(name, func(t *testing.T) {
			net := NewFactoryRunner(factory, opts...)
			br, bw := collectRuns(t, batch, start, k, reps, 70_000)
			nr, nw := collectRuns(t, net, start, k, reps, 71_000)
			ks, err := stats.TwoSampleKS(br, nr)
			if err != nil {
				t.Fatal(err)
			}
			if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
				t.Errorf("consensus-time distributions differ batch vs network: D=%.3f p=%.2g", ks.D, ks.P)
			}
			chi, err := stats.ChiSquareHomogeneity(bw, nw)
			if err != nil {
				t.Fatal(err)
			}
			if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
				t.Errorf("winner distributions differ batch vs network: %v vs %v (p=%.2g)", bw, nw, chi.P)
			}
		})
	}
}

// TestNetworkEngineMatchesBatchUnderAdversary: the same cross-validation
// through the §5 corrupt/reconcile path — rounds-to-stability and winner
// distributions must match the batch engine's.
func TestNetworkEngineMatchesBatchUnderAdversary(t *testing.T) {
	const (
		n    = 200
		k    = 4
		reps = 80
	)
	start := config.Balanced(n, k)
	factory := func() core.Rule { return rules.NewThreeMajority() }
	shared := []Option{
		WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
		WithMaxRounds(5000),
	}
	batch := NewFactoryRunner(factory, shared...)
	net := NewFactoryRunner(factory, append([]Option{WithEngine(EngineCluster), WithParallelism(1)}, shared...)...)
	br, bw := collectRuns(t, batch, start, k, reps, 72_000)
	nr, nw := collectRuns(t, net, start, k, reps, 73_000)
	ks, err := stats.TwoSampleKS(br, nr)
	if err != nil {
		t.Fatal(err)
	}
	if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("stability-time distributions differ batch vs network: D=%.3f p=%.2g", ks.D, ks.P)
	}
	chi, err := stats.ChiSquareHomogeneity(bw, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("winner distributions differ batch vs network: %v vs %v (p=%.2g)", bw, nw, chi.P)
	}
}

// TestNetworkEngineBitExact: fixed seed + fixed workers reproduce runs bit
// for bit on every model — the reproducibility column the engine gained in
// the event-driven rewrite.
func TestNetworkEngineBitExact(t *testing.T) {
	start := config.Balanced(300, 6)
	for name, netOpts := range map[string][]Option{
		"zero/p1":     {WithEngine(EngineCluster), WithParallelism(1)},
		"zero/p3":     {WithEngine(EngineCluster), WithParallelism(3)},
		"latency":     {WithNetwork(&cluster.Net{Delay: 1, Jitter: 2}), WithParallelism(2)},
		"lossy":       {WithNetwork(&cluster.Net{Loss: 0.2}), WithParallelism(2)},
		"partitioned": {WithNetwork(&cluster.Net{Partitions: []cluster.Partition{{From: 3, Until: 9, Groups: 3}}}), WithParallelism(1)},
	} {
		t.Run(name, func(t *testing.T) {
			rn := NewFactoryRunner(threeMajorityFactory,
				append([]Option{WithSeed(99), WithTrace(1), WithMaxRounds(100_000)}, netOpts...)...)
			run := func() *Result {
				res, err := rn.Run(context.Background(), start)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel || a.Messages != b.Messages {
				t.Fatalf("non-deterministic: rounds %d/%d winner %d/%d messages %d/%d",
					a.Rounds, b.Rounds, a.WinnerLabel, b.WinnerLabel, a.Messages, b.Messages)
			}
			if !reflect.DeepEqual(a.Final.CountsCopy(), b.Final.CountsCopy()) {
				t.Fatalf("final counts diverge: %v vs %v", a.Final.CountsCopy(), b.Final.CountsCopy())
			}
			if !reflect.DeepEqual(a.Trace, b.Trace) {
				t.Fatal("round traces diverge")
			}
		})
	}
}

// TestWithNetworkImpliesClusterEngine: WithNetwork selects the cluster
// engine by itself and rejects a conflicting explicit engine.
func TestWithNetworkImpliesClusterEngine(t *testing.T) {
	start := config.Balanced(64, 2)
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithNetwork(cluster.Zero{}), WithSeed(5)).
		Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("WithNetwork did not route to the message-passing engine")
	}
	_, err = NewFactoryRunner(threeMajorityFactory,
		WithNetwork(cluster.Zero{}), WithEngine(EngineAgents)).
		Run(context.Background(), start)
	if err == nil || !strings.Contains(err.Error(), "cluster engine") {
		t.Fatalf("conflicting engine accepted: %v", err)
	}
	_, err = NewFactoryRunner(threeMajorityFactory,
		WithNetwork(&cluster.Net{Loss: 1})).
		Run(context.Background(), start)
	if err == nil {
		t.Fatal("loss = 1 accepted; no pull could ever complete")
	}
}

// TestClusterFactoryLaterInstanceError: a factory that degrades after its
// first instantiation — nil, a rule without per-node semantics, or one
// that samples a different number of nodes — must surface an error, not
// panic mid-run (regression for the bare type assertion in the per-lane
// factory closure), on the agents kernel that zero-latency runs use and on
// the event path that a Net with delay takes.
func TestClusterFactoryLaterInstanceError(t *testing.T) {
	start := config.Balanced(64, 2)
	for model, suffix := range map[cluster.Model]string{
		nil:                    "",
		&cluster.Net{Delay: 1}: "-net",
	} {
		for name, later := range map[string]func() core.Rule{
			"nil":           func() core.Rule { return nil },
			"non-noderule":  func() core.Rule { return rules.NewUndecided() },
			"other-samples": func() core.Rule { return rules.NewHMajority(5) },
		} {
			t.Run(name+suffix, func(t *testing.T) {
				calls := 0
				factory := func() core.Rule {
					calls++
					if calls > 1 {
						return later()
					}
					return rules.NewThreeMajority()
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("degrading factory panicked: %v", r)
					}
				}()
				_, err := NewFactoryRunner(factory, WithEngine(EngineCluster),
					WithNetwork(model), WithParallelism(2), WithSeed(1)).
					Run(context.Background(), start)
				if err == nil {
					t.Fatal("expected an error from the degrading factory")
				}
				if name == "non-noderule" && !strings.Contains(err.Error(), "core.NodeRule") {
					t.Fatalf("error does not name the missing interface: %v", err)
				}
				if name == "other-samples" && !strings.Contains(err.Error(), "differing sample counts") {
					t.Fatalf("error does not name the sample-count mismatch: %v", err)
				}
			})
		}
	}
}

// zeroSampleRule is a per-node rule that samples no nodes.
type zeroSampleRule struct{ *rules.Voter }

func (zeroSampleRule) Samples() int { return 0 }

// TestClusterRejectsZeroSampleRule: a rule that pulls from no node has no
// message-passing round, on either cluster path.
func TestClusterRejectsZeroSampleRule(t *testing.T) {
	for _, model := range []cluster.Model{nil, &cluster.Net{Delay: 1}} {
		factory := func() core.Rule { return zeroSampleRule{rules.NewVoter()} }
		_, err := NewFactoryRunner(factory, WithEngine(EngineCluster),
			WithNetwork(model), WithSeed(1)).
			Run(context.Background(), config.Balanced(64, 2))
		if err == nil || !strings.Contains(err.Error(), "samples 0 nodes") {
			t.Fatalf("model %v: err = %v, want a samples-0 error", model, err)
		}
	}
}

// TestRunReplicasReturnsCompletedWorkOnLateCancel: a context cancelled
// after every replica finished must not discard the fully-computed
// results (regression for the unconditional ctx.Err() return).
func TestRunReplicasReturnsCompletedWorkOnLateCancel(t *testing.T) {
	const replicas = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every replica converges at its round-0 observation; the last one to
	// start cancels the context on its way — strictly after the previous
	// replicas completed (workers = 1 serializes them) and before
	// RunReplicas checks the context.
	started := 0
	rn := NewFactoryRunner(threeMajorityFactory,
		WithSeed(11),
		WithStopWhen(func(round int, _ *config.Config) bool {
			if round == 0 {
				started++
				if started == replicas {
					cancel()
				}
			}
			return true
		}))
	results, err := rn.RunReplicas(ctx, config.Balanced(50, 2), replicas, 1)
	if err != nil {
		t.Fatalf("completed work discarded: %v", err)
	}
	if len(results) != replicas {
		t.Fatalf("got %d results, want %d", len(results), replicas)
	}
	for i, res := range results {
		if res == nil || !res.Converged {
			t.Fatalf("replica %d: %+v", i, res)
		}
	}
	// A cancellation that does cost replicas still reports the error.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := rn.RunReplicas(pre, config.Balanced(50, 2), replicas, 1); err == nil {
		t.Fatal("pre-cancelled context must still error")
	}
}

// TestNetworkEngineInjectInvalidSlotGrowth exercises the mid-run
// slot-growth path of the event-driven engine — the per-Step CountsView
// re-fetch after InjectInvalid rebuilds the configuration — at small n,
// across worker counts and network models, so the race detector sweeps
// the parallel wake phase under adversarial slot growth.
func TestNetworkEngineInjectInvalidSlotGrowth(t *testing.T) {
	start := config.Balanced(120, 4)
	for name, opts := range map[string][]Option{
		"p1":         {WithEngine(EngineCluster), WithParallelism(1)},
		"p4":         {WithEngine(EngineCluster), WithParallelism(4)},
		"latency/p2": {WithNetwork(&cluster.Net{Delay: 1, Jitter: 1, Loss: 0.05}), WithParallelism(2)},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := NewFactoryRunner(threeMajorityFactory,
				append([]Option{
					WithAdversary(&adversary.InjectInvalid{F: 2}, 0.05, 8),
					WithMaxRounds(100_000),
					WithSeed(131),
				}, opts...)...).
				Run(context.Background(), start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stable || !res.WinnerValid {
				t.Fatalf("stable=%v valid=%v", res.Stable, res.WinnerValid)
			}
			// 4 initial colors + the injected slot = 5 → 3-bit payloads.
			if res.BitsPerMessage != 3 {
				t.Fatalf("BitsPerMessage = %d, want 3 after injection", res.BitsPerMessage)
			}
			if err := res.Final.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterZeroRunsAgentsKernel: under a lockstep model a cluster round
// is an agents round, so the cluster engine runs the agents kernel. At the
// same seed and worker count the two engines give the same run — rounds,
// final counts and winner — for 3-Majority and for Voter under an
// injecting adversary (which grows the slot space mid-run), and the
// cluster run reports the lossless message law 2·n·h·rounds.
func TestClusterZeroRunsAgentsKernel(t *testing.T) {
	voterFactory := func() core.Rule { return rules.NewVoter() }
	cases := []struct {
		name    string
		factory core.Factory
		start   *config.Config
		h       int
		opts    []Option
	}{
		{name: "3-majority", factory: threeMajorityFactory, start: config.Balanced(300, 6), h: 3},
		{name: "voter/inject-invalid", factory: voterFactory, start: config.Balanced(120, 3), h: 1,
			opts: []Option{WithAdversary(&adversary.InjectInvalid{F: 1}, 0.05, 8), WithMaxRounds(20_000)}},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 3} {
			for _, model := range []cluster.Model{nil, cluster.Zero{}, &cluster.Net{}} {
				name := fmt.Sprintf("%s/p=%d/default", tc.name, p)
				if model != nil {
					name = fmt.Sprintf("%s/p=%d/%s", tc.name, p, model.Name())
				}
				t.Run(name, func(t *testing.T) {
					rn := NewFactoryRunner(tc.factory, append([]Option{WithParallelism(p), WithSeed(77)}, tc.opts...)...)
					agents, err := rn.with(WithEngine(EngineAgents)).Run(context.Background(), tc.start)
					if err != nil {
						t.Fatal(err)
					}
					clusterRn := rn.with(WithEngine(EngineCluster))
					if model != nil {
						clusterRn = clusterRn.with(WithNetwork(model))
					}
					cl, err := clusterRn.Run(context.Background(), tc.start)
					if err != nil {
						t.Fatal(err)
					}
					if cl.Rounds != agents.Rounds || cl.WinnerLabel != agents.WinnerLabel ||
						!reflect.DeepEqual(cl.Final.CountsCopy(), agents.Final.CountsCopy()) {
						t.Fatalf("cluster rounds %d, winner %d, final %v; agents rounds %d, winner %d, final %v",
							cl.Rounds, cl.WinnerLabel, cl.Final.CountsCopy(),
							agents.Rounds, agents.WinnerLabel, agents.Final.CountsCopy())
					}
					if want := int64(2 * tc.start.N() * tc.h * cl.Rounds); cl.Messages != want {
						t.Fatalf("Messages = %d, want 2·n·h·rounds = %d", cl.Messages, want)
					}
					if agents.Messages != 0 {
						t.Fatalf("agents run reports %d messages", agents.Messages)
					}
				})
			}
		}
	}
}

// TestNetworkEngineMillionNodes is the scale acceptance run: a 3-Majority
// consensus at n = 10⁶, k = 32 under the zero-latency model — past the
// old engine's 100k goroutine cap — verified bit-exact across two runs at
// fixed (seed, workers), with zero per-round goroutine spawns. Skipped
// under -race (the instrumented build is ~20× slower; race coverage runs
// at small n) and under -short.
func TestNetworkEngineMillionNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("million-node acceptance run is skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("million-node acceptance run is skipped in -short mode")
	}
	const (
		n       = 1_000_000
		k       = 32
		workers = 4
	)
	start := config.Balanced(n, k)
	baseline := runtime.NumGoroutine()
	var during []int
	run := func() *Result {
		rn := NewFactoryRunner(threeMajorityFactory,
			WithEngine(EngineCluster),
			WithParallelism(workers),
			WithSeed(1_000_003),
			WithObserver(func(round int, _ *config.Config) {
				if round > 0 && round%16 == 0 {
					during = append(during, runtime.NumGoroutine())
				}
			}))
		res, err := rn.Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || !res.Final.IsConsensus() {
			t.Fatalf("no consensus: rounds=%d remaining=%d", res.Rounds, res.Final.Remaining())
		}
		return res
	}
	a := run()
	b := run()
	if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel || a.Messages != b.Messages {
		t.Fatalf("fixed (seed, workers) not bit-exact: rounds %d/%d winner %d/%d messages %d/%d",
			a.Rounds, b.Rounds, a.WinnerLabel, b.WinnerLabel, a.Messages, b.Messages)
	}
	if !reflect.DeepEqual(a.Final.CountsCopy(), b.Final.CountsCopy()) {
		t.Fatal("final counts diverge between identical runs")
	}
	if want := int64(a.Rounds) * n * 3 * 2; a.Messages != want {
		t.Fatalf("Messages = %d, want exactly 2·n·h·rounds = %d", a.Messages, want)
	}
	// The engine multiplexes 10⁶ nodes over its fixed pool: the goroutine
	// count mid-run never exceeds the pre-run baseline plus the pool.
	for _, g := range during {
		if g > baseline+workers {
			t.Fatalf("goroutine count %d mid-run exceeds baseline %d + %d workers (per-round spawns?)",
				g, baseline, workers)
		}
	}
	t.Logf("n=%d k=%d: consensus in %d rounds, %d messages", n, k, a.Rounds, a.Messages)
}

// TestNetworkEngineLatencyDesynchronizes: under per-leg jitter the round
// barrier semantics still hold — Step returns with every node having
// completed at least the round count — and the run still converges, while
// a purely fixed delay keeps the population in lockstep exactly.
func TestNetworkEngineLatencyDesynchronizes(t *testing.T) {
	start := config.Balanced(100, 4)
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithNetwork(&cluster.Net{Delay: 1, Jitter: 3}),
		WithSeed(17), WithMaxRounds(100_000)).
		Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("jittered network did not converge")
	}
	// Jitter desynchronizes nodes: fast nodes run ahead of the slowest, so
	// strictly more than 2·n·h·rounds messages are sent.
	if res.Messages <= int64(res.Rounds)*100*3*2 {
		t.Fatalf("messages = %d over %d rounds: jitter produced no overshoot", res.Messages, res.Rounds)
	}
}
