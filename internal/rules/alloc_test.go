package rules

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// TestBatchStepZeroSteadyStateAllocs: a steady-state batch round must not
// allocate for the rules the hot loop leans on — the AC laws (Voter,
// 3-Majority), the keeper/switcher laws (2-Choices, LazyVoter), and the
// count-based h-Majority law, whose per-round α evaluation reuses the
// scratch held by analytic.AlphaEvaluator.
func TestBatchStepZeroSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		rule core.Rule
	}{
		{"voter", NewVoter()},
		{"3-majority", NewThreeMajority()},
		{"2-choices", NewTwoChoices()},
		{"lazy-voter", NewLazyVoter(0.5)},
		{"5-majority-count-based", NewHMajority(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(31)
			c := config.Balanced(4096, 8)
			for i := 0; i < 5; i++ {
				tc.rule.Step(c, r) // reach steady state
			}
			if avg := testing.AllocsPerRun(50, func() { tc.rule.Step(c, r) }); avg != 0 {
				t.Errorf("%s batch round allocates %.2f times, want 0", tc.name, avg)
			}
		})
	}
}

// TestHMajorityStepZeroAllocsWideSupport: the batch round stays
// allocation-free at the widest support there is — every node its own
// color, 5-Majority over 1024 live colors — and a few rounds in, where the
// counts have spread over several distinct values. The configuration is
// reset from a snapshot before each measured round, so every round sees
// the same support and the scratch sized by the warm-up round suffices.
// Under -race, where sync.Pool drops the pooled multinomial scratch at
// random, the rounds still run but their allocation count is not checked.
func TestHMajorityStepZeroAllocsWideSupport(t *testing.T) {
	m := NewHMajority(5)
	r := rng.New(33)
	c := config.Singleton(1024)
	for round := 0; round < 3; round++ {
		snap := append([]int(nil), c.CountsView()...)
		if avg := testing.AllocsPerRun(50, func() {
			copy(c.CountsView(), snap)
			m.Step(c, r)
		}); avg != 0 && !raceEnabled {
			t.Errorf("round %d (%d live colors): batch round allocates %.2f times, want 0", round, c.Remaining(), avg)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchStepZeroAllocsSingleton: Voter, 3-Majority and 2-Choices
// rounds from Singleton(4096) allocate nothing over three successive
// rounds, where few trials fall on each live color: rng.Multinomial draws
// per trial from pooled scratch, and 2-Choices draws its few movers one
// by one (stepSparse) into scratch it keeps. Each measured round restarts
// from its snapshot, so every run sees the same support. Under -race the
// allocation count is not checked, as above.
func TestBatchStepZeroAllocsSingleton(t *testing.T) {
	cases := []struct {
		name string
		rule core.Rule
	}{
		{"voter", NewVoter()},
		{"3-majority", NewThreeMajority()},
		{"2-choices", NewTwoChoices()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(34)
			c := config.Singleton(4096)
			for round := 0; round < 3; round++ {
				snap := append([]int(nil), c.CountsView()...)
				if avg := testing.AllocsPerRun(50, func() {
					copy(c.CountsView(), snap)
					tc.rule.Step(c, r)
				}); avg != 0 && !raceEnabled {
					t.Errorf("round %d (%d live colors): Step allocates %.2f times, want 0", round, c.Remaining(), avg)
				}
				if err := c.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPerNodeStepZeroSteadyStateAllocs: the per-node law the agent engines
// run — Update resolving one node's plurality of h pulls with a uniform
// tie-break — must not allocate for h <= 16, where the tie buffer lives on
// the stack (the h > 16 heap buffer is the one waived cold path). The
// sample vectors cover a unique plurality, a two-way tie and an all-distinct
// h-way tie.
func TestPerNodeStepZeroSteadyStateAllocs(t *testing.T) {
	for _, h := range []int{3, 5, 16} {
		m := NewHMajority(h)
		r := rng.New(33)
		inputs := [][]int{make([]int, h), make([]int, h), make([]int, h)}
		for i := 0; i < h; i++ {
			inputs[0][i] = 7      // unique plurality
			inputs[1][i] = i % 2  // two-way tie at h = 16, a narrow win for 0 at odd h
			inputs[2][i] = i + 10 // all distinct: h-way tie
		}
		sink := 0
		if avg := testing.AllocsPerRun(100, func() {
			for _, s := range inputs {
				sink += m.Update(0, s, r)
			}
		}); avg != 0 {
			t.Errorf("h=%d: per-node update allocates %.2f times, want 0", h, avg)
		}
		if sink == 0 {
			t.Fatal("updates returned no colors")
		}
	}
}

// TestHMajorityStepRegimes pins that there is one regime: narrow and wide
// supports alike take the count-based law, a round being exactly
// Mult(n, α(c)) with α the exact process function. Driven from the same
// seed, Step must reproduce core.ACStep with AlphaExact's α count for
// count, at 8 live colors and at 256 (C(260, 5) ≈ 9.7·10⁹ sample outcomes,
// past any enumeration budget), and preserve the configuration invariant.
// Zipf starts give every color its own fraction, so a misplaced α entry
// shows in the draw.
func TestHMajorityStepRegimes(t *testing.T) {
	for _, k := range []int{8, 256} {
		m := NewHMajority(5)
		c := config.Zipf(10_000, k, 1)
		want := c.Clone()
		alpha, err := m.AlphaExact(want)
		if err != nil {
			t.Fatal(err)
		}
		m.Step(c, rng.New(32))
		core.ACStep(want, rng.New(32), alpha)
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		got, exp := c.CountsView(), want.CountsView()
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("k=%d: Step count[%d] = %d, Mult(n, α) draw gives %d", k, i, got[i], exp[i])
			}
		}
	}
}

// BenchmarkHMajorityStep measures one batch round across h and support.
// The round cost must not grow with n: Balanced(1e6, 64) costs no more
// than Balanced(1e5, 64), whose counts take two distinct values (1563 and
// 1562) against one. Singleton(1024) is the widest support, every node
// its own color, where the multinomial draw goes per trial.
func BenchmarkHMajorityStep(b *testing.B) {
	starts := []struct {
		name string
		c    *config.Config
	}{
		{"singleton/n=1024", config.Singleton(1024)},
		{"balanced/n=1e5,k=64", config.Balanced(100_000, 64)},
		{"balanced/n=1e6,k=64", config.Balanced(1_000_000, 64)},
	}
	for _, h := range []int{3, 5, 8, 16} {
		for _, st := range starts {
			b.Run(fmt.Sprintf("h=%d/%s", h, st.name), func(b *testing.B) {
				m := NewHMajority(h)
				r := rng.New(1)
				c := st.c.Clone()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(c.CountsView(), st.c.CountsView())
					m.Step(c, r)
				}
			})
		}
	}
}
