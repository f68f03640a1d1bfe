package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rules"
)

// blockAssign builds a per-node group assignment of contiguous blocks:
// sizes[g] nodes of group g, in group order.
func blockAssign(sizes ...int) []int {
	var out []int
	for g, sz := range sizes {
		for i := 0; i < sz; i++ {
			out = append(out, g)
		}
	}
	return out
}

// A single all-covering behavior group with no overrides must reproduce
// the plain agents engine bit-for-bit: the hetero round draws the same
// samples from the same streams and applies the same rule.
func TestBehaviorSingleGroupBitExact(t *testing.T) {
	start := config.Balanced(300, 6)
	for _, p := range []int{1, 4} {
		plainRunner := NewFactoryRunner(threeMajorityFactory,
			WithEngine(EngineAgents), WithParallelism(p), WithSeed(42))
		plain, err := plainRunner.Run(context.Background(), start)
		if err != nil {
			t.Fatalf("p=%d plain: %v", p, err)
		}
		grouped, err := plainRunner.With(
			WithNodeBehaviors(blockAssign(300), []NodeBehavior{{}}),
		).Run(context.Background(), start)
		if err != nil {
			t.Fatalf("p=%d grouped: %v", p, err)
		}
		if plain.Rounds != grouped.Rounds || plain.WinnerLabel != grouped.WinnerLabel {
			t.Fatalf("p=%d: plain (rounds=%d winner=%d) != grouped (rounds=%d winner=%d)",
				p, plain.Rounds, plain.WinnerLabel, grouped.Rounds, grouped.WinnerLabel)
		}
		if !reflect.DeepEqual(plain.Final.CountsView(), grouped.Final.CountsView()) {
			t.Fatalf("p=%d: final counts differ: %v vs %v",
				p, plain.Final.CountsView(), grouped.Final.CountsView())
		}
	}
}

// A stubborn dissenter group never changes opinion: the run cannot reach
// one color, and the dissenters' color keeps at least their own support.
func TestBehaviorStubbornDissenters(t *testing.T) {
	// 190 nodes of color 0, 10 stubborn dissenters of color 1.
	start, err := config.New([]int{190, 10})
	if err != nil {
		t.Fatal(err)
	}
	rn := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineAgents), WithSeed(7), WithMaxRounds(300),
		WithNodeBehaviors(blockAssign(190, 10), []NodeBehavior{{}, {Stubborn: true}}))
	res, err := rn.Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("converged to one color despite stubborn dissenters: %+v", res)
	}
	if got := res.Final.CountsView()[1]; got < 10 {
		t.Fatalf("dissenter color has %d nodes, want >= 10", got)
	}
}

// A group that never joins within the budget behaves like a stubborn
// group: here the joiners hold the overwhelming majority color, so the
// rest adopts it and the run converges to that color.
func TestBehaviorJoinRound(t *testing.T) {
	// 10 active nodes of color 0, 90 late joiners of color 1.
	start, err := config.New([]int{10, 90})
	if err != nil {
		t.Fatal(err)
	}
	rn := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineAgents), WithSeed(3), WithMaxRounds(500),
		WithNodeBehaviors(blockAssign(10, 90), []NodeBehavior{{}, {JoinRound: 1 << 20}}))
	res, err := rn.Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.WinnerLabel != 1 {
		t.Fatalf("want convergence to the held majority color 1, got converged=%v winner=%d",
			res.Converged, res.WinnerLabel)
	}
}

// Mixed rules per group: fixed (seed, p) is bit-exact across repeated
// runs, on the sequential and the sharded path.
func TestBehaviorMixedRulesDeterministic(t *testing.T) {
	start := config.Balanced(400, 8)
	voter := func() core.Rule { return rules.NewVoter() }
	for _, p := range []int{1, 3} {
		rn := NewFactoryRunner(threeMajorityFactory,
			WithEngine(EngineAgents), WithParallelism(p), WithSeed(11), WithMaxRounds(5000),
			WithNodeBehaviors(blockAssign(200, 200), []NodeBehavior{{}, {Factory: voter}}))
		a, err := rn.Run(context.Background(), start)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		b, err := rn.Run(context.Background(), start)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel ||
			!reflect.DeepEqual(a.Final.CountsView(), b.Final.CountsView()) {
			t.Fatalf("p=%d: repeated runs differ: %+v vs %+v", p, a, b)
		}
		if !a.Converged {
			t.Fatalf("p=%d: mixed-rule run did not converge in budget", p)
		}
	}
}

// WithInvalidLabels removes a label from the §5 validity set: a winner
// holding it reports WinnerValid == false.
func TestInvalidLabels(t *testing.T) {
	start, err := config.New([]int{5, 95})
	if err != nil {
		t.Fatal(err)
	}
	rn := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineAgents), WithSeed(5), WithMaxRounds(1000),
		WithInvalidLabels(1))
	res, err := rn.Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	wantValid := res.WinnerLabel != 1
	if res.WinnerValid != wantValid {
		t.Fatalf("winner %d: WinnerValid = %v, want %v", res.WinnerLabel, res.WinnerValid, wantValid)
	}
}

// Behaviors are an agents-engine feature: every other engine rejects them.
func TestBehaviorNeedsAgentsEngine(t *testing.T) {
	start := config.Balanced(100, 4)
	for i, engine := range []Option{WithEngine(EngineBatch), WithEngine(EngineCluster), WithGraph(graph.NewRing(100))} {
		rn := NewFactoryRunner(threeMajorityFactory,
			engine, WithSeed(1),
			WithNodeBehaviors(blockAssign(100), []NodeBehavior{{}}))
		if _, err := rn.Run(context.Background(), start); err == nil ||
			!strings.Contains(err.Error(), "node behaviors need the agents engine") {
			t.Fatalf("engine option %d: err = %v, want the agents-only error", i, err)
		}
	}
	// A malformed assignment is rejected with a population check.
	rn := NewFactoryRunner(threeMajorityFactory,
		WithEngine(EngineAgents), WithSeed(1),
		WithNodeBehaviors(blockAssign(50), []NodeBehavior{{}}))
	if _, err := rn.Run(context.Background(), start); err == nil {
		t.Fatal("short assignment accepted")
	}
}

// The RNG-consumption contract: a node that never updates consumes the
// same draws as any other node, so two mechanisms with identical
// semantics — a stubborn group, and a group whose join round lies beyond
// the budget — are bit-exact against each other.
func TestBehaviorStreamConsumptionStable(t *testing.T) {
	start, err := config.New([]int{90, 10})
	if err != nil {
		t.Fatal(err)
	}
	run := func(g NodeBehavior) *Result {
		rn := NewFactoryRunner(threeMajorityFactory,
			WithEngine(EngineAgents), WithSeed(9), WithMaxRounds(2000),
			WithNodeBehaviors(blockAssign(90, 10), []NodeBehavior{{}, g}))
		res, err := rn.Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(NodeBehavior{Stubborn: true})
	b := run(NodeBehavior{JoinRound: 1 << 30})
	if a.Rounds != b.Rounds || a.WinnerLabel != b.WinnerLabel ||
		!reflect.DeepEqual(a.Final.CountsView(), b.Final.CountsView()) {
		t.Fatalf("stubborn vs never-join differ: %+v vs %+v", a, b)
	}
}
