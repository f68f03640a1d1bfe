package rules

import (
	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// ThreeMajority is the 3-Majority process: sample three nodes; if a color
// appears at least twice among the samples adopt it, otherwise adopt the
// color of a uniformly random sample. Equivalently (paper §1): run
// 2-Choices and, on a mismatch, *comply* with a fresh Voter sample.
//
// It is an AC-process with α_i(c) = x_i·(1 + x_i − ‖x‖₂²) (Eq. 2), the
// process the paper's unconditional sublinear upper bound (Theorem 4) is
// about.
type ThreeMajority struct {
	alpha []float64
}

var (
	_ core.ACProcess   = (*ThreeMajority)(nil)
	_ core.NodeRule    = (*ThreeMajority)(nil)
	_ core.MeanFielder = (*ThreeMajority)(nil)
)

// NewThreeMajority returns a 3-Majority rule.
func NewThreeMajority() *ThreeMajority { return &ThreeMajority{} }

// Name implements core.Rule.
func (m *ThreeMajority) Name() string { return "3-majority" }

// Alpha implements core.ACProcess (Eq. 2).
func (m *ThreeMajority) Alpha(c *config.Config, out []float64) []float64 {
	x := c.Fractions(out)
	return analytic.ThreeMajorityAlpha(x, x)
}

// Step implements core.Rule: one round is Mult(n, α(c)).
//
//consensus:hotpath
func (m *ThreeMajority) Step(c *config.Config, r *rng.RNG) {
	m.alpha = resizeFloats(m.alpha, c.Slots())
	m.Alpha(c, m.alpha)
	core.ACStep(c, r, m.alpha)
}

// MeanFieldStep implements core.MeanFielder: the Eq. 2 map.
func (m *ThreeMajority) MeanFieldStep(x, out []float64) bool {
	analytic.ThreeMajorityAlpha(x, out)
	return true
}

// MeanFieldLipschitz implements core.MeanFielder via the local
// induced-L1 Jacobian bound of the Eq. 2 map.
func (m *ThreeMajority) MeanFieldLipschitz(x []float64, radius float64) float64 {
	return analytic.ThreeMajorityLipschitz(x, radius)
}

// Samples implements core.NodeRule.
func (m *ThreeMajority) Samples() int { return 3 }

// Update implements core.NodeRule: majority of three if it exists, else a
// uniformly random sample.
//
//consensus:hotpath
func (m *ThreeMajority) Update(_ int, samples []int, r *rng.RNG) int {
	if c, ok := majorityOfThree(samples[0], samples[1], samples[2]); ok {
		return c
	}
	return anyOfThree(samples, r)
}

// majorityOfThree is the 3-Majority decision on one node's samples s0, s1,
// s2, shared by Update and threeMajorityChunk: the color at least two of
// them share, with ok = true, or ok = false when all three differ. It
// takes no branch: c is selected by a mask (s1 when s1 == s2, else s0),
// and a pair is equal exactly when its XOR is 0, which the unsigned
// minimum detects. With two colors of similar support, whether s0 == s1
// is a coin flip that a branch predictor loses half the time.
func majorityOfThree(s0, s1, s2 int) (c int, ok bool) {
	c = s0 ^ ((s0 ^ s1) & -b2i(s1 == s2))
	return c, min(uint(s0^s1), uint(s0^s2), uint(s1^s2)) == 0
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// anyOfThree is 3-Majority's tie-break, shared by Update and
// threeMajorityChunk: a uniformly random one of the three samples, by one
// r.IntN(3) draw. Both helpers are small enough to inline.
func anyOfThree(samples []int, r *rng.RNG) int {
	return samples[r.IntN(3)]
}
