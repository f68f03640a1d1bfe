package rules

import (
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
)

func TestLazyVoterConstructor(t *testing.T) {
	l := NewLazyVoter(0.5)
	if l.beta != 0.5 {
		t.Fatalf("Beta = %v", l.beta)
	}
	if l.Name() != "lazy-voter(0.50)" {
		t.Fatalf("Name = %q", l.Name())
	}
}

func TestLazyVoterPanics(t *testing.T) {
	for _, beta := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("beta=%v: expected panic", beta)
				}
			}()
			NewLazyVoter(beta)
		}()
	}
}

func TestLazyVoterZeroBetaIsVoterOneRound(t *testing.T) {
	// With beta = 0 the one-round means must match Voter's: E[c'] = c.
	r := rng.New(141)
	cfg := config.Balanced(400, 4)
	sums := make([]float64, 4)
	const reps = 2000
	for i := 0; i < reps; i++ {
		c := cfg.Clone()
		NewLazyVoter(0).Step(c, r)
		for s := 0; s < 4; s++ {
			sums[s] += float64(c.Count(s))
		}
	}
	for s := range sums {
		got := sums[s] / reps
		want := float64(cfg.Count(s))
		if math.Abs(got-want) > 2.5 {
			t.Errorf("slot %d: mean %.2f, want %.2f", s, got, want)
		}
	}
}

func TestLazyVoterInvariantAndAbsorption(t *testing.T) {
	r := rng.New(142)
	l := NewLazyVoter(0.5)
	c := config.Balanced(300, 3)
	for round := 0; round < 20; round++ {
		l.Step(c, r)
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	// Consensus absorbing.
	one, _ := config.New([]int{0, 50})
	for round := 0; round < 10; round++ {
		l.Step(one, r)
	}
	if one.Count(1) != 50 {
		t.Fatalf("consensus not absorbing: %v", one.CountsCopy())
	}
}

func TestLazyVoterNodeRule(t *testing.T) {
	r := rng.New(143)
	l := NewLazyVoter(0.5)
	if l.Samples() != 1 {
		t.Fatalf("Samples = %d", l.Samples())
	}
	kept, adopted := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		switch l.Update(1, []int{2}, r) {
		case 1:
			kept++
		case 2:
			adopted++
		default:
			t.Fatal("impossible update")
		}
	}
	frac := float64(kept) / trials
	if math.Abs(frac-0.5) > 0.015 {
		t.Fatalf("kept fraction %.4f, want ~0.5", frac)
	}
	_ = adopted
}

// TestLazyVoterConstantFactorSlowdown: per-node laziness costs only a
// constant factor. In the dual coalescing view with β = 1/2, two walks
// meet with probability 3/(4n) per round instead of 1/n (both lazy: no
// meeting; one lazy: 1/n; both active: 1/n), so reduction times stretch
// by ≈ 4/3 — the ablation behind the paper's §3.2 remark that its
// analysis needs no laziness and loses nothing by dropping it.
func TestLazyVoterConstantFactorSlowdown(t *testing.T) {
	r := rng.New(144)
	const (
		n    = 512
		reps = 60
		kTar = 8 // reduction target: T^8 has far less variance than T^1
	)
	measure := func(beta float64) float64 {
		total := 0.0
		for i := 0; i < reps; i++ {
			c := config.Singleton(n)
			var rule interface {
				Step(*config.Config, *rng.RNG)
			}
			if beta == 0 {
				rule = NewVoter()
			} else {
				rule = NewLazyVoter(beta)
			}
			rounds := 0
			for c.Remaining() > kTar {
				rule.Step(c, r)
				rounds++
			}
			total += float64(rounds)
		}
		return total / reps
	}
	plain := measure(0)
	lazy := measure(0.5)
	ratio := lazy / plain
	if ratio < 1.15 || ratio > 1.6 {
		t.Fatalf("lazy/plain reduction-time ratio %.3f, want ≈ 4/3", ratio)
	}
}
