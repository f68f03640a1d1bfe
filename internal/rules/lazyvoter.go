package rules

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// LazyVoter is the lazy variant of Voter: with probability beta a node
// does nothing this round; otherwise it adopts one uniformly sampled
// color. [BGKMT16] analyzes Voter through this variant (β = 1/2) because
// its proof relies critically on laziness; the paper's §3.2 stresses that
// *its* coalescence analysis needs none. This rule exists as the
// ablation, which cuts both ways:
//
//   - on the complete graph laziness only costs a constant factor (β = 1/2
//     stretches pairwise coalescence from 1/n to 3/(4n) per round, ≈ 4/3
//     slower), so the paper loses nothing by dropping it;
//   - on bipartite graphs laziness is *necessary*: the synchronous Voter's
//     dual walks flip parity deterministically and never cross classes, so
//     plain Voter stalls at 2 opinions forever while LazyVoter converges
//     (see sim.TestBipartiteVoterObstruction).
//
// Like 2-Choices, LazyVoter is not an AC-process: keeping one's color on a
// lazy round depends on the node's own color. The batch step is exact and
// O(k): the lazy keepers per color are binomial, drawn by rng.Thin, and
// the active nodes pool into one multinomial draw from the color
// distribution.
type LazyVoter struct {
	beta  float64
	fracs []float64
	adopt []int
}

var (
	_ core.Rule     = (*LazyVoter)(nil)
	_ core.NodeRule = (*LazyVoter)(nil)
)

// NewLazyVoter returns a Voter that idles with probability beta per node
// per round. It panics unless 0 <= beta < 1 (programmer error).
func NewLazyVoter(beta float64) *LazyVoter {
	if beta < 0 || beta >= 1 {
		panic("rules: NewLazyVoter requires beta in [0, 1)")
	}
	return &LazyVoter{beta: beta}
}

// Beta returns the laziness probability.
func (l *LazyVoter) Beta() float64 { return l.beta }

// Name implements core.Rule.
func (l *LazyVoter) Name() string { return fmt.Sprintf("lazy-voter(%.2f)", l.beta) }

// Step implements core.Rule.
//
//consensus:hotpath
func (l *LazyVoter) Step(c *config.Config, r *rng.RNG) {
	k := c.Slots()
	l.fracs = resizeFloats(l.fracs, k)
	l.adopt = resizeInts(l.adopt, k)
	c.Fractions(l.fracs)

	// Each node idles with probability beta, keeping its color: thinning
	// the counts in place leaves the lazy nodes.
	counts := c.CountsView()
	active := c.N() - r.Thin(counts, l.beta, counts)
	// Active nodes adopt a uniform sample from the *previous* round's
	// distribution (captured in l.fracs before mutation).
	r.Multinomial(active, l.fracs, l.adopt)
	for j := range counts {
		counts[j] += l.adopt[j]
	}
}

// Samples implements core.NodeRule.
func (l *LazyVoter) Samples() int { return 1 }

// Update implements core.NodeRule.
//
//consensus:hotpath
func (l *LazyVoter) Update(own int, samples []int, r *rng.RNG) int {
	if r.Bernoulli(l.beta) {
		return own
	}
	return samples[0]
}
