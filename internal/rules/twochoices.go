package rules

import (
	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// TwoChoices is the 2-Choices process: sample two nodes; if they agree
// adopt their color, otherwise *ignore* them and keep your own.
//
// 2-Choices is deliberately NOT a core.ACProcess: the next color of a node
// depends on the node's own current color, so its one-round law is not a
// plain multinomial. This is exactly the paper's point in §2.2 — Theorem 2
// does not apply, and indeed 2-Choices dominates Voter in expectation yet
// is far slower from many-color configurations (Theorem 5).
//
// The batch step samples the exact law by the keeper/switcher
// decomposition: each node independently adopts color i with probability
// x_i² (total S = ‖x‖₂²) and keeps its own color with probability 1 − S.
// Per color j, the departing nodes are Bin(c_j, S), drawn for all colors
// at once by rng.Thin; the pooled departures redistribute as
// Mult(Σ departures, x²/S). From many colors S is small and few nodes
// move, so both draws go trial by trial and a round costs O(k) cheap
// steps plus O(1) per moving node; elsewhere they take one binomial per
// live color.
type TwoChoices struct {
	squares   []float64
	departed  []int
	switchers []int
}

var _ core.Rule = (*TwoChoices)(nil)
var _ core.NodeRule = (*TwoChoices)(nil)
var _ core.MeanFielder = (*TwoChoices)(nil)

// NewTwoChoices returns a 2-Choices rule.
func NewTwoChoices() *TwoChoices { return &TwoChoices{} }

// Name implements core.Rule.
func (t *TwoChoices) Name() string { return "2-choices" }

// Step implements core.Rule via the keeper/switcher decomposition.
//
//consensus:hotpath
func (t *TwoChoices) Step(c *config.Config, r *rng.RNG) {
	k := c.Slots()
	t.squares = resizeFloats(t.squares, k)
	t.departed = resizeInts(t.departed, k)
	t.switchers = resizeInts(t.switchers, k)

	c.Fractions(t.squares)
	s := 0.0
	for i, x := range t.squares {
		t.squares[i] = x * x
		s += t.squares[i]
	}
	counts := c.CountsView()
	// Each node leaves its own color when both samples agree on some color
	// (probability S), and then adopts color i with probability x_i²/S.
	moved := r.Thin(counts, s, t.departed)
	r.Multinomial(moved, t.squares, t.switchers)
	for i := range counts {
		counts[i] += t.switchers[i] - t.departed[i]
	}
}

// MeanFieldStep implements core.MeanFielder: in expectation 2-Choices
// and 3-Majority agree (footnote 2), so the map is the shared expected
// next-fraction expression — algebraically Eq. 2.
func (t *TwoChoices) MeanFieldStep(x, out []float64) bool {
	analytic.ExpectedNextFraction(x, out)
	return true
}

// MeanFieldLipschitz implements core.MeanFielder: same map as Eq. 2,
// same bound.
func (t *TwoChoices) MeanFieldLipschitz(x []float64, radius float64) float64 {
	return analytic.ThreeMajorityLipschitz(x, radius)
}

// MeanFieldExact implements core.MeanFielder: false — the one-round law
// is keeper/switcher, not Mult(n, α(x)) (2-Choices is not an
// AC-process, §2.2), so the hybrid engine never fast-forwards it. The
// map is exposed for trajectory analysis only; this is deliberate and
// mirrors the paper's point that 2-Choices' behavior near ties is not
// captured by its expectation dynamics.
func (t *TwoChoices) MeanFieldExact() bool { return false }

// Samples implements core.NodeRule.
func (t *TwoChoices) Samples() int { return 2 }

// Update implements core.NodeRule: adopt on agreement, otherwise ignore.
//
//consensus:hotpath
func (t *TwoChoices) Update(own int, samples []int, _ *rng.RNG) int {
	if samples[0] == samples[1] {
		return samples[0]
	}
	return own
}
