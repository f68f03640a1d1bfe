package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/stats"
)

// Old-vs-new sampler equivalence: changing the draw stream (the one-word
// alias draw, batched DrawN fills, the count-based h-Majority law, the
// partial-Fisher–Yates corruption path) breaks bit-exact golden pins by
// design. What must NOT change is the distribution each engine induces.
//
// testdata/sampler_equivalence.json records round-count and winner samples
// per engine (with and without the §5 adversary) captured from the engines
// BEFORE a sampler change; TestSamplerEquivalenceVsFixture reruns the same
// suites with the current engines and asserts the two sample sets are
// statistically indistinguishable (two-sample KS on round counts,
// chi-square homogeneity on winner tallies) at
// stats.DefaultEquivalenceAlpha per comparison. All runs are seeded, so
// the suite is deterministic: it cannot flake, only regress.
//
// Regeneration policy (see DESIGN.md §3): when a PR intentionally changes
// the draw stream, it must FIRST regenerate this fixture from the
// pre-change engines (run the regeneration test on the parent commit):
//
//	REGEN_SAMPLER_FIXTURE=1 go test ./internal/sim -run TestRegenerateSamplerEquivalenceFixture
//
// and then pass this suite with the new samplers against that fixture.

const samplerFixturePath = "testdata/sampler_equivalence.json"

type equivSuite struct {
	Name string `json:"name"`
	// K is the number of colors in the balanced start (winner labels are
	// 0..K-1).
	K       int   `json:"k"`
	Rounds  []int `json:"rounds"`
	Winners []int `json:"winners"`
}

type equivFixture struct {
	Note   string       `json:"note"`
	Suites []equivSuite `json:"suites"`
}

// equivSuiteDefs enumerates the recorded workloads: every engine whose draw
// stream the samplers feed (the cluster engine under its zero-latency
// model among them), with and without the §5 adversary, plus the
// h-Majority rule on both the batch law and the per-node engine, 3-Majority
// on two sparse topologies, the batch Voter, 3-Majority and 2-Choices laws
// from the singleton start, and the batch binomial's two BTRS regimes:
// means of 10–30 and n = 10⁸.
var equivSuiteDefs = []struct {
	name string
	k    int
	reps int
	run  func(rep int) (*Result, error)
}{
	{
		name: "agents/3-majority", k: 8, reps: 120,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithEngine(EngineAgents), WithSeed(40_000+uint64(rep))).
				Run(context.Background(), config.Balanced(256, 8))
		},
	},
	{
		name: "agents/3-majority/adversary", k: 4, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithEngine(EngineAgents),
				WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
				WithMaxRounds(5000),
				WithSeed(42_000+uint64(rep))).
				Run(context.Background(), config.Balanced(200, 4))
		},
	},
	{
		name: "graph/3-majority", k: 6, reps: 120,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithGraph(graph.NewComplete(192)), WithSeed(41_000+uint64(rep))).
				Run(context.Background(), config.Balanced(192, 6))
		},
	},
	{
		name: "graph/3-majority/adversary", k: 4, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithGraph(graph.NewComplete(200)),
				WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
				WithMaxRounds(5000),
				WithSeed(44_000+uint64(rep))).
				Run(context.Background(), config.Balanced(200, 4))
		},
	},
	// Sparse topologies, so the graph engine's neighbor fills stay under
	// the fixture: the torus (regular, batched) and a random 3-regular
	// graph (an explicit adjacency). An odd-sided torus: stripes on an
	// even one can hold forever.
	{
		name: "graph/3-majority/torus", k: 3, reps: 120,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithGraph(graph.NewTorus(9, 9)), WithMaxRounds(20_000),
				WithSeed(56_000+uint64(rep))).
				Run(context.Background(), config.Balanced(81, 3))
		},
	},
	{
		name: "graph/3-majority/random-regular", k: 6, reps: 120,
		run: func(rep int) (*Result, error) {
			g, err := graph.NewRandomRegular(192, 3, rng.New(57))
			if err != nil {
				return nil, err
			}
			return NewRunner(rules.NewThreeMajority(),
				WithGraph(g), WithMaxRounds(20_000),
				WithSeed(57_000+uint64(rep))).
				Run(context.Background(), config.Balanced(192, 6))
		},
	},
	{
		name: "batch/5-majority", k: 8, reps: 120,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewHMajority(5),
				WithEngine(EngineBatch), WithSeed(43_000+uint64(rep))).
				Run(context.Background(), config.Balanced(512, 8))
		},
	},
	// Wide balanced supports: C(h+k-1, k-1) exceeds 10⁵ sample outcomes
	// at the start (h=3 over 128 colors, h=4 over 48), the regime the
	// batch law once handed to a per-node sampler.
	{
		name: "batch/3-majority/wide", k: 128, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewHMajority(3),
				WithEngine(EngineBatch), WithSeed(46_000+uint64(rep))).
				Run(context.Background(), config.Balanced(512, 128))
		},
	},
	{
		name: "batch/4-majority/wide", k: 48, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewHMajority(4),
				WithEngine(EngineBatch), WithSeed(47_000+uint64(rep))).
				Run(context.Background(), config.Balanced(480, 48))
		},
	},
	// Singleton starts, every node its own color: the opening rounds put
	// few trials on each live color, the regime where the batch samplers
	// draw per trial instead of per color. The winner label is the
	// winning node's own color, so k = n.
	{
		name: "batch/3-majority/singleton", k: 512, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithEngine(EngineBatch), WithSeed(48_000+uint64(rep))).
				Run(context.Background(), config.Singleton(512))
		},
	},
	{
		name: "batch/2-choices/singleton", k: 256, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewTwoChoices(),
				WithEngine(EngineBatch), WithSeed(49_000+uint64(rep))).
				Run(context.Background(), config.Singleton(256))
		},
	},
	// The paper-batch sep-2c cell: from 1024 colors nearly every round
	// moves a few nodes among many live colors.
	{
		name: "batch/2-choices/singleton-1024", k: 1024, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewTwoChoices(),
				WithEngine(EngineBatch), WithSeed(58_000+uint64(rep))).
				Run(context.Background(), config.Singleton(1024))
		},
	},
	{
		name: "batch/voter/singleton", k: 256, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewVoter(),
				WithEngine(EngineBatch), WithSeed(51_000+uint64(rep))).
				Run(context.Background(), config.Singleton(256))
		},
	},
	// Per-color binomial means between 10 and 30 (1600 trials over 80
	// colors), where Binomial switches from CDF inversion to BTRS.
	{
		name: "batch/voter/mid-mean", k: 80, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewVoter(),
				WithEngine(EngineBatch), WithSeed(52_000+uint64(rep))).
				Run(context.Background(), config.Balanced(1600, 80))
		},
	},
	// n = 10⁸ over 8 colors: means near 10⁷, where BTRS takes its full
	// acceptance test about once in four calls.
	{
		name: "batch/3-majority/biased-1e8", k: 8, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewThreeMajority(),
				WithEngine(EngineBatch), WithSeed(53_000+uint64(rep))).
				Run(context.Background(), config.Biased(100_000_000, 8, 10_000))
		},
	},
	// The cluster engine under its default zero-latency model, pinned to
	// one worker lane so the recorded stream does not depend on the
	// machine's core count.
	{
		name: "cluster/3-majority", k: 8, reps: 120,
		run: func(rep int) (*Result, error) {
			return NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
				WithEngine(EngineCluster), WithParallelism(1), WithSeed(54_000+uint64(rep))).
				Run(context.Background(), config.Balanced(256, 8))
		},
	},
	{
		name: "cluster/3-majority/adversary", k: 4, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewFactoryRunner(func() core.Rule { return rules.NewThreeMajority() },
				WithEngine(EngineCluster), WithParallelism(1),
				WithAdversary(&adversary.RandomNoise{F: 2}, 0.1, 10),
				WithMaxRounds(5000),
				WithSeed(55_000+uint64(rep))).
				Run(context.Background(), config.Balanced(200, 4))
		},
	},
	{
		name: "agents/5-majority", k: 4, reps: 100,
		run: func(rep int) (*Result, error) {
			return NewRunner(rules.NewHMajority(5),
				WithEngine(EngineAgents), WithSeed(45_000+uint64(rep))).
				Run(context.Background(), config.Balanced(200, 4))
		},
	},
}

// collectEquivSuites runs every suite against the current engines.
func collectEquivSuites(t *testing.T) []equivSuite {
	t.Helper()
	out := make([]equivSuite, 0, len(equivSuiteDefs))
	for _, def := range equivSuiteDefs {
		s := equivSuite{Name: def.name, K: def.k}
		for rep := 0; rep < def.reps; rep++ {
			res, err := def.run(rep)
			if err != nil {
				t.Fatalf("%s rep %d: %v", def.name, rep, err)
			}
			s.Rounds = append(s.Rounds, res.Rounds)
			s.Winners = append(s.Winners, res.WinnerLabel)
		}
		out = append(out, s)
	}
	return out
}

// TestRegenerateSamplerEquivalenceFixture rewrites the fixture from the
// CURRENT engines. Guarded by an environment variable: it must only run on
// the commit *before* an intentional sampler change (the fixture records
// the old stream's distributions).
func TestRegenerateSamplerEquivalenceFixture(t *testing.T) {
	if os.Getenv("REGEN_SAMPLER_FIXTURE") == "" {
		t.Skip("set REGEN_SAMPLER_FIXTURE=1 to rewrite the fixture (pre-change commit only)")
	}
	fix := equivFixture{
		Note:   "round-count and winner samples per engine, recorded before the last intentional sampler change; see samplerchange_test.go",
		Suites: collectEquivSuites(t),
	}
	data, err := json.MarshalIndent(&fix, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(samplerFixturePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(samplerFixturePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d suites)", samplerFixturePath, len(fix.Suites))
}

// TestSamplerEquivalenceVsFixture asserts the current samplers induce the
// same distributions the fixture recorded from the old samplers.
func TestSamplerEquivalenceVsFixture(t *testing.T) {
	data, err := os.ReadFile(samplerFixturePath)
	if err != nil {
		t.Fatalf("missing sampler fixture (regenerate on the pre-change commit): %v", err)
	}
	var fix equivFixture
	if err := json.Unmarshal(data, &fix); err != nil {
		t.Fatal(err)
	}
	old := make(map[string]equivSuite, len(fix.Suites))
	for _, s := range fix.Suites {
		old[s.Name] = s
	}
	for _, cur := range collectEquivSuites(t) {
		ref, ok := old[cur.Name]
		if !ok {
			t.Errorf("%s: suite missing from fixture; regenerate it", cur.Name)
			continue
		}
		ks, err := stats.TwoSampleKS(toFloats(ref.Rounds), toFloats(cur.Rounds))
		if err != nil {
			t.Fatal(err)
		}
		if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
			t.Errorf("%s: round-count distributions differ old vs new: D=%.3f p=%.2g (n=%d,%d)",
				cur.Name, ks.D, ks.P, ks.Nx, ks.Ny)
		}
		chi, err := stats.ChiSquareHomogeneity(tallyWinners(t, ref), tallyWinners(t, cur))
		if err != nil {
			t.Fatal(err)
		}
		if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
			t.Errorf("%s: winner distributions differ old vs new: stat=%.2f p=%.2g",
				cur.Name, chi.Stat, chi.P)
		}
	}
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func tallyWinners(t *testing.T, s equivSuite) []int {
	t.Helper()
	wins := make([]int, s.K)
	for _, w := range s.Winners {
		if w < 0 || w >= s.K {
			t.Fatalf("%s: winner label %d outside [0, %d)", s.Name, w, s.K)
		}
		wins[w]++
	}
	return wins
}
