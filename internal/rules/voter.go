// Package rules implements the paper's consensus update rules — Voter,
// 2-Choices, 3-Majority, the general h-Majority, plus the related 2-Median
// [DGM+11] and Undecided-State Dynamics [BCN+15] discussed in §1.1.
//
// Every rule provides its exact synchronous one-round law (core.Rule); the
// ones with per-node semantics also implement core.NodeRule so the agent
// and message-passing engines can cross-validate the batch samplers. Rules
// keep scratch buffers and are not safe for concurrent use: create one per
// goroutine.
package rules

import (
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Voter is the Voter (Polling) process: sample one node, adopt its color.
// It is the h = 1 (and, in distribution, h = 2) member of the h-Majority
// family and the dominating process used in Phase 1 of Theorem 4.
type Voter struct {
	alpha []float64
}

var (
	_ core.ACProcess   = (*Voter)(nil)
	_ core.NodeRule    = (*Voter)(nil)
	_ core.MeanFielder = (*Voter)(nil)
)

// NewVoter returns a Voter rule.
func NewVoter() *Voter { return &Voter{} }

// Name implements core.Rule.
func (v *Voter) Name() string { return "voter" }

// Alpha implements core.ACProcess: α_i(c) = c_i/n (Eq. 1).
func (v *Voter) Alpha(c *config.Config, out []float64) []float64 {
	return c.Fractions(out)
}

// Step implements core.Rule: one round is Mult(n, c/n).
//
//consensus:hotpath
func (v *Voter) Step(c *config.Config, r *rng.RNG) {
	v.alpha = resizeFloats(v.alpha, c.Slots())
	c.Fractions(v.alpha)
	core.ACStep(c, r, v.alpha)
}

// MeanFieldStep implements core.MeanFielder: the Voter map is the
// identity (Eq. 1) — expectation dynamics never move, consensus is pure
// finite-n noise, so the hybrid engine's drift criterion keeps Voter on
// exact sampling every round.
func (v *Voter) MeanFieldStep(x, out []float64) bool {
	copy(out, x)
	return true
}

// MeanFieldLipschitz implements core.MeanFielder: the identity map has
// Lipschitz constant exactly 1.
func (v *Voter) MeanFieldLipschitz([]float64, float64) float64 { return 1 }

// Samples implements core.NodeRule.
func (v *Voter) Samples() int { return 1 }

// Update implements core.NodeRule: always adopt the sampled color.
//
//consensus:hotpath
func (v *Voter) Update(_ int, samples []int, _ *rng.RNG) int {
	return samples[0]
}

// resizeFloats returns buf with exactly n elements, reusing capacity.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// resizeInts returns buf with exactly n elements, reusing capacity.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
