// Package core defines the paper's central abstractions: update rules,
// anonymous consensus (AC-) processes (Definition 1), protocol dominance
// (Definition 2), and the empirical verification machinery for the 1-step
// coupling property (Lemma 1).
//
// The type split mirrors the paper's taxonomy: every process is a Rule
// (it has an exact one-round law on configurations), some additionally have
// per-node semantics (NodeRule), and the anonymous ones — where each node
// adopts color i with a probability α_i(c) that depends only on the current
// configuration — are ACProcess. 2-Choices deliberately does *not*
// implement ACProcess: its update depends on the updating node's own color,
// which is exactly why Theorem 2 does not apply to it (paper §2.2).
package core

import (
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Rule is a consensus update rule with an exact synchronous one-round law.
// Step advances the configuration by one round in place, sampling from the
// exact distribution of the process. Implementations may keep scratch
// buffers and are not safe for concurrent use; create one instance per
// goroutine (see Factory).
type Rule interface {
	// Name returns a short identifier ("voter", "3-majority", ...).
	Name() string
	// Step performs one synchronous round on c using randomness from r.
	Step(c *config.Config, r *rng.RNG)
}

// NodeRule is the per-node view of an update rule under Uniform Pull: in
// each round a node observes Samples() uniformly random nodes' colors and
// computes its next color. The agent-based and message-passing engines run
// this form and are cross-validated against Rule's batch law.
type NodeRule interface {
	// Name returns a short identifier.
	Name() string
	// Samples returns the number of nodes pulled per round.
	Samples() int
	// Update returns the node's next color slot given its own slot and the
	// pulled sample slots. It must not retain samples.
	Update(own int, samples []int, r *rng.RNG) int
}

// ACProcess is an anonymous consensus process (Definition 1): one round
// sends configuration c to Mult(n, α(c)).
type ACProcess interface {
	Rule
	// Alpha writes the process function α(c) over the configuration's
	// slots into out (len == c.Slots(); pass nil to allocate) and returns
	// it. The result is a probability vector.
	Alpha(c *config.Config, out []float64) []float64
}

// MeanFielder is implemented by rules whose expectation dynamics — the
// mean-field map x_{t+1} = α(x_t) of Eq. 1/Eq. 2 — are available in
// evaluable form together with a certified Lipschitz bound. The hybrid
// engine's certified fast-forward is built on this contract: it iterates
// the map instead of sampling rounds and composes the sampling noise of
// each skipped round through the Lipschitz expansion (internal/analytic,
// DESIGN.md §8). Implementations may use receiver scratch and follow the
// same not-concurrency-safe contract as Step.
type MeanFielder interface {
	Rule
	// MeanFieldStep writes α(x) into out (len(out) == len(x); x is a
	// probability vector over slots) and reports whether the map is
	// evaluable at x. The in-tree rules evaluate their exact maps at any
	// support; false leaves the hybrid engine on exact rounds.
	MeanFieldStep(x, out []float64) bool
	// MeanFieldLipschitz returns an upper bound on the L1→L1 Lipschitz
	// constant of the map, valid on the intersection of the simplex with
	// the L1 ball of the given radius around x.
	MeanFieldLipschitz(x []float64, radius float64) float64
	// MeanFieldExact reports whether one exact round of the rule is
	// Mult(n, α(x)) — the AC one-step law (Definition 1) the
	// fast-forward's exit resample draws from. 2-Choices shares the
	// Eq. 2 map in expectation (footnote 2) but its one-round law is not
	// multinomial (§2.2), so it reports false and the hybrid engine
	// never fast-forwards it: exposing its map here serves trajectory
	// analysis only.
	MeanFieldExact() bool
}

// Factory creates fresh rule instances. Replica runners use it so each
// goroutine owns its rule's scratch space.
type Factory func() Rule

// ACStep performs the generic AC-process round c -> Mult(n, alpha): the
// 1-step law every ACProcess shares (paper §2.2). alpha must have length
// c.Slots().
//
//consensus:hotpath
func ACStep(c *config.Config, r *rng.RNG, alpha []float64) {
	counts := c.CountsView()
	r.Multinomial(c.N(), alpha, counts)
}
