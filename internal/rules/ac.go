package rules

import (
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// AC is a generic anonymous consensus process built from an arbitrary
// process function (Definition 1). It lets tests and experiments
// instantiate AC-processes beyond the named ones — e.g. interpolations
// between Voter and 3-Majority when probing the dominance framework.
type AC struct {
	name    string
	alphaFn func(c *config.Config, out []float64) []float64
	alpha   []float64
}

var _ core.ACProcess = (*AC)(nil)

// NewAC returns an AC-process with the given name and process function.
// alphaFn must write a probability vector of length c.Slots() into out
// (allocating when out is nil) and return it.
//
//lint:testhelper the rules and core tests build AC-processes beyond the named rules with it
func NewAC(name string, alphaFn func(c *config.Config, out []float64) []float64) *AC {
	if alphaFn == nil {
		panic("rules: NewAC requires a process function")
	}
	return &AC{name: name, alphaFn: alphaFn}
}

// Name implements core.Rule.
func (a *AC) Name() string { return a.name }

// Alpha implements core.ACProcess.
func (a *AC) Alpha(c *config.Config, out []float64) []float64 {
	return a.alphaFn(c, out)
}

// Step implements core.Rule.
func (a *AC) Step(c *config.Config, r *rng.RNG) {
	a.alpha = resizeFloats(a.alpha, c.Slots())
	a.alphaFn(c, a.alpha)
	core.ACStep(c, r, a.alpha)
}
