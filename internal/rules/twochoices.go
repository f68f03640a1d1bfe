package rules

import (
	"slices"

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
// is far slower from many-color configurations (Theorem 5). For the same
// reason it is not a core.MeanFielder: it shares Eq. 2's map in
// expectation (footnote 2), but the hybrid engine's exit resample draws
// Mult(n, α), which is not its round law.
//
// The batch step samples the exact law by the keeper/switcher
// decomposition: each node independently adopts color i with probability
// x_i² (total S = ‖x‖₂²) and keeps its own color with probability 1 − S.
// The law has two exact regimes, chosen by a pure function of the counts
// (twoChoicesSparse). From many colors S is near 1/n and a round moves
// a handful of nodes among many live colors; there the step draws the
// movers themselves: departure positions among the n nodes by geometric
// gaps and one uniform target below Σ c_i² per mover, sorted, then
// applied in one sweep over the slots, O(live + M log M) for M movers.
// Otherwise the departing nodes are Bin(c_j, S) per color j, drawn for
// all colors at once by rng.Thin, and the pooled departures redistribute
// as Mult(Σ departures, x²/S), each O(live).
type TwoChoices struct {
	squares   []float64
	departed  []int
	switchers []int
}

var _ core.Rule = (*TwoChoices)(nil)
var _ core.NodeRule = (*TwoChoices)(nil)

// NewTwoChoices returns a 2-Choices rule.
func NewTwoChoices() *TwoChoices { return &TwoChoices{} }

// Name implements core.Rule.
func (t *TwoChoices) Name() string { return "2-choices" }

// Step implements core.Rule via the keeper/switcher decomposition.
//
//consensus:hotpath
func (t *TwoChoices) Step(c *config.Config, r *rng.RNG) {
	counts := c.CountsView()
	n := c.N()
	s2, live := 0, 0
	for _, v := range counts {
		s2 += v * v
		if v > 0 {
			live++
		}
	}
	if twoChoicesSparse(n, s2, live) {
		t.stepSparse(counts, n, s2, r)
		return
	}
	k := len(counts)
	t.squares = resizeFloats(t.squares, k)
	t.departed = resizeInts(t.departed, k)
	t.switchers = resizeInts(t.switchers, k)

	// The fractions x_i = c_i/n and their squares, in one pass.
	fn := float64(n)
	s := 0.0
	for i, v := range counts {
		x := float64(v) / fn
		t.squares[i] = x * x
		s += t.squares[i]
	}
	// Each node leaves its own color when both samples agree on some color
	// (probability S), and then adopts color i with probability x_i²/S.
	moved := r.Thin(counts, s, t.departed)
	r.Multinomial(moved, t.squares, t.switchers)
	for i := range counts {
		counts[i] += t.switchers[i] - t.departed[i]
	}
}

// twoChoicesSparse reports whether a round over n nodes with s2 = Σ c_i²
// and live colors draws its movers one by one: when the expected movers
// n·S = s2/n are at most a fifth of the live colors, and n < 2³¹ so that
// s2 < 2⁶² fits an int. Over equal counts that holds while √(5n) or more
// colors are alive. The fifth is the measured break-even: from
// Balanced(n, k) at k = 64, 256 and 1024, the sparse step took 0.59–0.79
// of the dense step's time at n·S = live/8 and 0.96–1.15 at live/4.
func twoChoicesSparse(n, s2, live int) bool {
	return n < 1<<31 && s2 <= n*live/5
}

// stepSparse draws one round from its movers. Every node departs
// independently with probability S = s2/n², so the departures are the
// hit positions of n Bernoulli(S) trials, sorted and distinct. Each
// departing node adopts color i with probability c_i²/s2: a uniform
// target below s2 falls in slot i's share of the cumulative squares.
// With both lists sorted, one sweep over the slots, keeping running sums
// of c_i and c_i², moves every node.
//
//consensus:hotpath
func (t *TwoChoices) stepSparse(counts []int, n, s2 int, r *rng.RNG) {
	fn := float64(n)
	// The position buffer keeps a capacity of at least the slot count:
	// the sparse regime expects at most a fifth as many movers.
	dep := r.HitPositions(n, float64(s2)/(fn*fn), resizeInts(t.departed, len(counts)))
	// Sentinels n and s2 end both lists: no running sum passes them.
	dep = append(dep, n)
	t.departed = dep
	m := len(dep) - 1
	if m == 0 {
		return
	}
	tgt := resizeInts(t.switchers, m+1)
	t.switchers = tgt
	r.FillIntN(s2, tgt[:m])
	slices.Sort(tgt[:m])
	tgt[m] = s2
	d, a := 0, 0
	end, end2 := 0, 0
	for i, v := range counts {
		end += v
		end2 += v * v
		if dep[d] >= end && tgt[a] >= end2 {
			continue
		}
		delta := 0
		for ; dep[d] < end; d++ {
			delta--
		}
		for ; tgt[a] < end2; a++ {
			delta++
		}
		counts[i] += delta
		if d == m && a == m {
			break
		}
	}
}

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
