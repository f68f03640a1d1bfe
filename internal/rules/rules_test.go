package rules

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// allRules returns one instance of every batch rule for generic tests.
func allRules() []core.Rule {
	return []core.Rule{
		NewVoter(),
		NewLazyVoter(0.5),
		NewTwoChoices(),
		NewThreeMajority(),
		NewHMajority(4),
		NewHMajority(5),
		NewTwoMedian(),
		NewUndecided(),
	}
}

func TestRuleNames(t *testing.T) {
	want := map[string]bool{
		"voter": true, "lazy-voter(0.50)": true, "2-choices": true,
		"3-majority": true, "4-majority": true, "5-majority": true,
		"2-median": true, "undecided": true,
	}
	for _, rule := range allRules() {
		if !want[rule.Name()] {
			t.Errorf("unexpected rule name %q", rule.Name())
		}
	}
}

// TestStepPreservesInvariant: every rule keeps Σ counts = n on random
// configurations.
func TestStepPreservesInvariant(t *testing.T) {
	r := rng.New(61)
	for _, rule := range allRules() {
		t.Run(rule.Name(), func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				n := 50 + r.IntN(500)
				k := 1 + r.IntN(10)
				c := config.RandomComposition(n, k, r)
				for round := 0; round < 5; round++ {
					rule.Step(c, r)
					if err := c.CheckInvariant(); err != nil {
						t.Fatalf("trial %d round %d: %v", trial, round, err)
					}
				}
			}
		})
	}
}

// TestConsensusAbsorbing: a single-color configuration is a fixed point of
// every rule.
func TestConsensusAbsorbing(t *testing.T) {
	r := rng.New(62)
	for _, rule := range allRules() {
		t.Run(rule.Name(), func(t *testing.T) {
			counts := []int{0, 100, 0}
			c, err := config.New(counts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 10; round++ {
				rule.Step(c, r)
			}
			if c.Count(1) != 100 {
				t.Fatalf("consensus not absorbing: %v", c.CountsCopy())
			}
		})
	}
}

// TestExtinctColorsStayExtinct: no rule resurrects a color with zero
// support (validity of the dynamics).
func TestExtinctColorsStayExtinct(t *testing.T) {
	r := rng.New(63)
	for _, rule := range allRules() {
		t.Run(rule.Name(), func(t *testing.T) {
			c, err := config.New([]int{50, 0, 50, 0})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 10; round++ {
				rule.Step(c, r)
				if c.Count(1) != 0 || c.Count(3) != 0 {
					t.Fatalf("round %d resurrected extinct color: %v", round, c.CountsCopy())
				}
			}
		})
	}
}

// meanNextFractions runs `reps` independent one-round batch steps from cfg
// and returns the mean next-round fractions per slot.
func meanNextFractions(t *testing.T, mk func() core.Rule, cfg *config.Config, reps int, r *rng.RNG) []float64 {
	t.Helper()
	sums := make([]float64, cfg.Slots())
	for i := 0; i < reps; i++ {
		c := cfg.Clone()
		rule := mk()
		rule.Step(c, r)
		for s := 0; s < cfg.Slots() && s < c.Slots(); s++ {
			sums[s] += float64(c.Count(s)) / float64(c.N())
		}
	}
	for i := range sums {
		sums[i] /= float64(reps)
	}
	return sums
}

func TestVoterOneRoundMean(t *testing.T) {
	r := rng.New(64)
	cfg := config.Balanced(300, 3)
	got := meanNextFractions(t, func() core.Rule { return NewVoter() }, cfg, 3000, r)
	for s, g := range got {
		want := float64(cfg.Count(s)) / float64(cfg.N())
		if math.Abs(g-want) > 0.01 {
			t.Errorf("slot %d: mean %.4f, want %.4f", s, g, want)
		}
	}
}

// TestFootnote2: 2-Choices and 3-Majority share the expected one-round
// behavior x_i² + (1-‖x‖²)x_i.
func TestFootnote2ExpectationIdentity(t *testing.T) {
	r := rng.New(65)
	cfg := config.Zipf(400, 4, 1.0)
	want := analytic.ExpectedNextFraction(cfg.Fractions(nil), nil)

	got2c := meanNextFractions(t, func() core.Rule { return NewTwoChoices() }, cfg, 4000, r)
	got3m := meanNextFractions(t, func() core.Rule { return NewThreeMajority() }, cfg, 4000, r)
	for s := range want {
		if math.Abs(got2c[s]-want[s]) > 0.012 {
			t.Errorf("2-choices slot %d: mean %.4f, want %.4f", s, got2c[s], want[s])
		}
		if math.Abs(got3m[s]-want[s]) > 0.012 {
			t.Errorf("3-majority slot %d: mean %.4f, want %.4f", s, got3m[s], want[s])
		}
	}
}

func TestThreeMajorityAlphaMatchesAnalytic(t *testing.T) {
	cfg := config.Zipf(100, 5, 0.8)
	m := NewThreeMajority()
	got := m.Alpha(cfg, nil)
	want := analytic.ThreeMajorityAlpha(cfg.Fractions(nil), nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Alpha mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestHMajorityOneRoundMeanMatchesAlpha: the batch sampler agrees in
// expectation with the exact process function.
func TestHMajorityOneRoundMeanMatchesAlpha(t *testing.T) {
	r := rng.New(66)
	cfg := config.Zipf(200, 4, 1.0)
	for _, h := range []int{1, 3, 4} {
		m := NewHMajority(h)
		alpha, err := m.AlphaExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := meanNextFractions(t, func() core.Rule { return NewHMajority(h) }, cfg, 1500, r)
		for s := range alpha {
			if math.Abs(got[s]-alpha[s]) > 0.02 {
				t.Errorf("h=%d slot %d: mean %.4f, want α %.4f", h, s, got[s], alpha[s])
			}
		}
	}
}

// TestHMajorityMeanFieldStepAtWideSupport: the mean-field map is
// evaluable at any support — 5-Majority over 64 and 256 live colors, where
// brute-force enumeration has C(68, 5) ≈ 1.0·10⁷ and C(260, 5) ≈ 9.5·10⁹
// sample outcomes — and equals, bit for bit, the α the batch Step draws
// its round from.
func TestHMajorityMeanFieldStepAtWideSupport(t *testing.T) {
	for _, k := range []int{64, 256} {
		c := config.Zipf(100_000, k, 1.0)
		x := c.Fractions(nil)
		out := make([]float64, len(x))
		m := NewHMajority(5)
		if !m.MeanFieldStep(x, out) {
			t.Fatalf("k=%d: MeanFieldStep not evaluable", k)
		}
		step := NewHMajority(5)
		step.Step(c.Clone(), rng.New(1))
		for i := range out {
			if out[i] != step.alpha[i] {
				t.Fatalf("k=%d slot %d: mean-field α %v, Step drew from %v", k, i, out[i], step.alpha[i])
			}
		}
		sum := 0.0
		for _, a := range out {
			sum += a
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("k=%d: Σα = %v, want 1", k, sum)
		}
	}
}

// TestMeanFieldLipschitzFinite: every rule's Lipschitz bound is finite at
// any point of the simplex and any radius. The hybrid planner relies on it
// to skip the bound at envelope 0, where ComposeEnvelope(0, L, noise)
// equals noise only for finite L.
func TestMeanFieldLipschitzFinite(t *testing.T) {
	points := [][]float64{
		{1, 0, 0, 0},
		{0.25, 0.25, 0.25, 0.25},
		{0.7, 0.2, 0.1, 0},
		config.Zipf(100_000, 64, 1.0).Fractions(nil),
	}
	rules := append(allRules(), NewHMajority(1), NewHMajority(2), NewHMajority(3))
	n := 0
	for _, r := range rules {
		mf, ok := r.(core.MeanFielder)
		if !ok {
			continue
		}
		n++
		for _, x := range points {
			for _, radius := range []float64{0, 1e-9, 0.01, 0.5, 2} {
				if l := mf.MeanFieldLipschitz(x, radius); math.IsNaN(l) || math.IsInf(l, 0) {
					t.Errorf("%s: MeanFieldLipschitz(%v, %v) = %v, want finite", r.Name(), x, radius, l)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no rule implements core.MeanFielder")
	}
}

// TestHMajorityH3MatchesThreeMajority: distributional agreement of the
// general rule at h = 3 with the closed-form 3-Majority batch rule.
func TestHMajorityH3MatchesThreeMajority(t *testing.T) {
	r := rng.New(67)
	cfg := config.Balanced(300, 3)
	gotH := meanNextFractions(t, func() core.Rule { return NewHMajority(3) }, cfg, 2000, r)
	got3 := meanNextFractions(t, func() core.Rule { return NewThreeMajority() }, cfg, 2000, r)
	for s := range gotH {
		if math.Abs(gotH[s]-got3[s]) > 0.015 {
			t.Errorf("slot %d: h-majority %.4f vs 3-majority %.4f", s, gotH[s], got3[s])
		}
	}
}

func TestNodeRuleUpdates(t *testing.T) {
	r := rng.New(68)
	t.Run("voter adopts sample", func(t *testing.T) {
		v := NewVoter()
		if got := v.Update(0, []int{7}, r); got != 7 {
			t.Fatalf("Update = %d", got)
		}
	})
	t.Run("2-choices agreement", func(t *testing.T) {
		tc := NewTwoChoices()
		if got := tc.Update(0, []int{5, 5}, r); got != 5 {
			t.Fatalf("agree: Update = %d", got)
		}
		if got := tc.Update(0, []int{5, 6}, r); got != 0 {
			t.Fatalf("disagree should keep own: Update = %d", got)
		}
	})
	t.Run("3-majority pairs", func(t *testing.T) {
		m := NewThreeMajority()
		if got := m.Update(9, []int{5, 5, 6}, r); got != 5 {
			t.Fatalf("two of three: Update = %d", got)
		}
		if got := m.Update(9, []int{6, 5, 5}, r); got != 5 {
			t.Fatalf("two of three (tail): Update = %d", got)
		}
		got := m.Update(9, []int{1, 2, 3}, r)
		if got != 1 && got != 2 && got != 3 {
			t.Fatalf("distinct samples: Update = %d not among samples", got)
		}
	})
	t.Run("2-median", func(t *testing.T) {
		tm := NewTwoMedian()
		tests := []struct {
			own     int
			samples []int
			want    int
		}{
			{own: 1, samples: []int{2, 3}, want: 2},
			{own: 5, samples: []int{1, 9}, want: 5},
			{own: 7, samples: []int{7, 7}, want: 7},
			{own: 9, samples: []int{3, 1}, want: 3},
			{own: 0, samples: []int{9, 4}, want: 4},
		}
		for _, tt := range tests {
			if got := tm.Update(tt.own, tt.samples, r); got != tt.want {
				t.Errorf("median(%d, %v) = %d, want %d", tt.own, tt.samples, got, tt.want)
			}
		}
	})
}

// TestThreeMajorityTieUniform: on three distinct samples each is adopted
// with probability ~1/3.
func TestThreeMajorityTieUniform(t *testing.T) {
	r := rng.New(69)
	m := NewThreeMajority()
	counts := make(map[int]int)
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[m.Update(9, []int{1, 2, 3}, r)]++
	}
	for _, v := range []int{1, 2, 3} {
		frac := float64(counts[v]) / trials
		if math.Abs(frac-1.0/3) > 0.015 {
			t.Errorf("sample %d adopted with frequency %.4f, want ~1/3", v, frac)
		}
	}
}

// TestHMajorityTieBreakUniform: ties among plurality colors are uniform.
func TestHMajorityTieBreakUniform(t *testing.T) {
	r := rng.New(70)
	m := NewHMajority(5)
	// counts: color 1 x2, color 2 x2, color 3 x1 -> tie between 1 and 2.
	counts := make(map[int]int)
	const trials = 30000
	for i := 0; i < trials; i++ {
		got := m.Update(0, []int{1, 2, 1, 2, 3}, r)
		counts[got]++
	}
	if counts[3] != 0 {
		t.Fatalf("non-plurality color won %d times", counts[3])
	}
	frac := float64(counts[1]) / trials
	if math.Abs(frac-0.5) > 0.015 {
		t.Fatalf("tie not uniform: color 1 frequency %.4f", frac)
	}
}

func TestTwoMedianBatchMatchesNodeSemantics(t *testing.T) {
	r := rng.New(71)
	cfg := config.Zipf(200, 5, 0.7)
	// Batch one-round mean.
	batch := meanNextFractions(t, func() core.Rule { return NewTwoMedian() }, cfg, 2000, r)
	// Agent one-round mean.
	tm := NewTwoMedian()
	sums := make([]float64, cfg.Slots())
	const reps = 2000
	counts := cfg.CountsCopy()
	n := cfg.N()
	for rep := 0; rep < reps; rep++ {
		next := make([]int, len(counts))
		for j, cj := range counts {
			for i := 0; i < cj; i++ {
				s0 := r.CategoricalCounts(counts, n)
				s1 := r.CategoricalCounts(counts, n)
				next[tm.Update(j, []int{s0, s1}, r)]++
			}
		}
		for s, v := range next {
			sums[s] += float64(v) / float64(n)
		}
	}
	for s := range sums {
		agent := sums[s] / reps
		if math.Abs(agent-batch[s]) > 0.015 {
			t.Errorf("slot %d: agent %.4f vs batch %.4f", s, agent, batch[s])
		}
	}
}

func TestUndecidedPrepareIdempotent(t *testing.T) {
	u := NewUndecided()
	c := config.Balanced(100, 4)
	s1 := u.Prepare(c)
	slots := c.Slots()
	s2 := u.Prepare(c)
	if s1 != s2 || c.Slots() != slots {
		t.Fatalf("Prepare not idempotent: %d vs %d, slots %d vs %d", s1, s2, slots, c.Slots())
	}
	if c.Label(s1) != UndecidedLabel {
		t.Fatalf("undecided slot labeled %d", c.Label(s1))
	}
}

func TestUndecidedProducesUndecidedNodes(t *testing.T) {
	r := rng.New(72)
	u := NewUndecided()
	c := config.Balanced(1000, 10)
	u.Step(c, r)
	if undecidedCount(c) == 0 {
		t.Fatal("balanced 10-color round should create undecided nodes")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestUndecidedPathologyKEqualsN: from the n-color configuration most
// nodes become undecided in one round (the paper's §1.1 observation for
// k = n).
func TestUndecidedPathologyKEqualsN(t *testing.T) {
	r := rng.New(73)
	u := NewUndecided()
	c := config.Singleton(2000)
	u.Step(c, r)
	frac := float64(undecidedCount(c)) / 2000
	// Each node goes undecided w.p. (n - 1 - 0)/n ≈ 1.
	if frac < 0.95 {
		t.Fatalf("undecided fraction %.3f, want ~1 for k = n", frac)
	}
}

func TestUndecidedRealColors(t *testing.T) {
	c := config.Balanced(100, 4)
	u := NewUndecided()
	u.Prepare(c)
	if got := realColors(c); got != 4 {
		t.Fatalf("RealColors = %d, want 4", got)
	}
	if got := undecidedCount(c); got != 0 {
		t.Fatalf("UndecidedCount = %d, want 0", got)
	}
}

func TestACCustomProcess(t *testing.T) {
	r := rng.New(74)
	// A custom AC-process: the Voter process function by another route.
	ac := NewAC("custom-voter", func(c *config.Config, out []float64) []float64 {
		return c.Fractions(out)
	})
	if ac.Name() != "custom-voter" {
		t.Fatalf("Name = %q", ac.Name())
	}
	c := config.Balanced(200, 4)
	for i := 0; i < 5; i++ {
		ac.Step(c, r)
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewACNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAC("bad", nil)
}

func TestNewHMajorityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHMajority(0)
}

// Property: one step of any rule from any random configuration preserves
// the node count and never goes negative.
func TestQuickAllRulesPreserveN(t *testing.T) {
	r := rng.New(75)
	factories := []func() core.Rule{
		func() core.Rule { return NewVoter() },
		func() core.Rule { return NewTwoChoices() },
		func() core.Rule { return NewThreeMajority() },
		func() core.Rule { return NewHMajority(4) },
		func() core.Rule { return NewTwoMedian() },
		func() core.Rule { return NewUndecided() },
	}
	prop := func(nRaw, kRaw uint16, ruleIdx uint8) bool {
		n := int(nRaw%500) + 2
		k := int(kRaw)%min(n, 8) + 1
		cfg := config.RandomComposition(n, k, r)
		rule := factories[int(ruleIdx)%len(factories)]()
		rule.Step(cfg, r)
		return cfg.CheckInvariant() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// realColors returns the number of decided colors with positive support
// (Remaining excluding the undecided slot).
func realColors(c *config.Config) int {
	k := 0
	for s := 0; s < c.Slots(); s++ {
		if c.Label(s) != UndecidedLabel && c.Count(s) > 0 {
			k++
		}
	}
	return k
}

// undecidedCount returns the number of undecided nodes (0 if the slot does
// not exist yet).
func undecidedCount(c *config.Config) int {
	if s := undecidedSlot(c); s >= 0 {
		return c.Count(s)
	}
	return 0
}
