package rules

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// HMajority is the general h-Majority process used by Conjecture 1: sample
// h nodes and adopt the plurality color of the samples, breaking ties
// uniformly among the tied plurality colors.
//
// For h = 3 this is exactly the paper's 3-Majority (a 2-out-of-3 color is
// the unique plurality; three distinct samples tie and the uniform
// tie-break equals "adopt a random sample"). For h = 1 and h = 2 it
// collapses to Voter, as the paper notes below Conjecture 1.
//
// h-Majority is an AC-process whose process function has no closed form
// for h >= 4. Its batch step evaluates α(c) exactly at any support
// (analytic.AlphaEvaluator, a grouped generating function over the
// distinct color fractions) and draws the round as one Mult(n, α) — O(k +
// d·poly(h)) for d distinct counts, independent of n. AlphaExact exposes
// the same process function (see analytic.HMajorityAlpha); Update is the
// literal per-node law the per-node engines run.
type HMajority struct {
	h     int
	fracs []float64
	alpha []float64
	eval  analytic.AlphaEvaluator
}

var _ core.Rule = (*HMajority)(nil)
var _ core.NodeRule = (*HMajority)(nil)
var _ core.MeanFielder = (*HMajority)(nil)

// NewHMajority returns an h-Majority rule. It panics for h < 1
// (programmer error).
func NewHMajority(h int) *HMajority {
	if h < 1 {
		panic("rules: NewHMajority requires h >= 1")
	}
	return &HMajority{h: h}
}

// H returns the sample size h.
func (m *HMajority) H() int { return m.h }

// Name implements core.Rule.
func (m *HMajority) Name() string { return fmt.Sprintf("%d-majority", m.h) }

// Step implements core.Rule: the count-based exact law — evaluate α(c),
// draw Mult(n, α) — in time independent of n.
//
//consensus:hotpath
func (m *HMajority) Step(c *config.Config, r *rng.RNG) {
	m.fracs = resizeFloats(m.fracs, c.Slots())
	m.alpha = resizeFloats(m.alpha, c.Slots())
	c.Fractions(m.fracs)
	if err := m.eval.Alpha(m.fracs, m.h, m.alpha); err != nil {
		panic(err) // unreachable: h >= 1 and a configuration has live support
	}
	core.ACStep(c, r, m.alpha)
}

// MeanFieldStep implements core.MeanFielder: the plurality-of-h map,
// evaluated exactly at any support — false only for an empty support.
func (m *HMajority) MeanFieldStep(x, out []float64) bool {
	return m.eval.Alpha(x, m.h, out) == nil
}

// MeanFieldLipschitz implements core.MeanFielder: the h = 3 map is
// exactly Eq. 2 with its sharper local bound; otherwise the global
// coupling bound h.
func (m *HMajority) MeanFieldLipschitz(x []float64, radius float64) float64 {
	if m.h == 3 {
		return analytic.ThreeMajorityLipschitz(x, radius)
	}
	return analytic.HMajorityLipschitz(m.h)
}

// MeanFieldExact implements core.MeanFielder: h-Majority is an
// AC-process, one round is Mult(n, α(x)).
func (m *HMajority) MeanFieldExact() bool { return true }

// Samples implements core.NodeRule.
func (m *HMajority) Samples() int { return m.h }

// Update implements core.NodeRule: plurality with uniform tie-breaking.
//
//consensus:hotpath
func (m *HMajority) Update(_ int, samples []int, r *rng.RNG) int {
	return m.plurality(samples, r)
}

// plurality returns the plurality value among samples[:h], breaking ties
// uniformly among the tied colors. It scans deterministically (O(h²), h is
// a small constant) so that runs reproduce exactly from a seed. The tie
// buffer is local — stack-allocated for h <= 16, a per-call heap
// allocation beyond that — never receiver state, so Update is
// unconditionally safe for concurrent calls from the sharded engines
// (which may share one instance across shards on a single-rule Runner).
//
//consensus:hotpath
func (m *HMajority) plurality(samples []int, r *rng.RNG) int {
	var buf [16]int
	tied := buf[:0]
	if m.h > len(buf) {
		tied = make([]int, 0, m.h) //lint:alloc cold path: h > 16 only, covered by the h<=16 zero-alloc test
	}
	maxCount := 0
	for i := 0; i < m.h; i++ {
		v := samples[i]
		// Count each distinct value once, at its first occurrence.
		first := true
		for j := 0; j < i; j++ {
			if samples[j] == v {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		count := 1
		for j := i + 1; j < m.h; j++ {
			if samples[j] == v {
				count++
			}
		}
		switch {
		case count > maxCount:
			maxCount = count
			tied = append(tied[:0], v)
		case count == maxCount:
			tied = append(tied, v)
		}
	}
	if len(tied) == 1 {
		return tied[0]
	}
	return tied[r.IntN(len(tied))]
}

// AlphaExact returns the exact process function α(c) in a new slice.
func (m *HMajority) AlphaExact(c *config.Config) ([]float64, error) {
	m.fracs = resizeFloats(m.fracs, c.Slots())
	c.Fractions(m.fracs)
	return analytic.HMajorityAlpha(m.fracs, m.h)
}
