package expt

import (
	"context"
	"math"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/scenario"
)

// E6 reproduces footnote 2: 2-Choices and 3-Majority behave identically in
// expectation — after one round, the expected fraction of nodes with color
// i is x_i² + (1 − Σ_j x_j²)·x_i for both. This is a custom-kind scenario
// (scenarios/e06_expectation.json): the measurement is a sequential
// one-round mean over a shared random stream, not a run to convergence, so
// the adapter steps both processes itself on a skewed configuration and
// compares the means to the closed form and to each other.
func init() {
	scenario.RegisterAdapter("e6", adaptE6)
}

func adaptE6(ctx context.Context, s *scenario.Scenario, p scenario.Params) (*scenario.Table, error) {
	n, err := s.ParamInt("n", p.Scale)
	if err != nil {
		return nil, err
	}
	reps, err := s.ParamInt("reps", p.Scale)
	if err != nil {
		return nil, err
	}
	k, err := s.ParamInt("k", p.Scale)
	if err != nil {
		return nil, err
	}
	zipfS, err := s.ParamFloat("s", p.Scale)
	if err != nil {
		return nil, err
	}
	cfg := config.Zipf(n, k, zipfS)
	want := analytic.ExpectedNextFraction(cfg.Fractions(nil), nil)
	base := rng.New(p.Seed)

	mean := func(factory core.Factory) ([]float64, error) {
		sums := make([]float64, cfg.Slots())
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := cfg.Clone()
			factory().Step(c, base)
			for s := 0; s < c.Slots(); s++ {
				sums[s] += float64(c.Count(s)) / float64(n)
			}
		}
		for i := range sums {
			sums[i] /= float64(reps)
		}
		return sums, nil
	}
	got2C, err := mean(func() core.Rule { return rules.NewTwoChoices() })
	if err != nil {
		return nil, err
	}
	got3M, err := mean(func() core.Rule { return rules.NewThreeMajority() })
	if err != nil {
		return nil, err
	}

	tbl := s.NewTable()
	x := cfg.Fractions(nil)
	maxDev := 0.0
	for s := range want {
		dev := math.Abs(got2C[s] - got3M[s])
		if dev > maxDev {
			maxDev = dev
		}
		tbl.AddRow(s, x[s], want[s], got2C[s], got3M[s], dev)
	}
	tbl.AddNote("n = %d, %d one-round replicas; max |2C−3M| deviation %.5f", n, reps, maxDev)
	tbl.AddNote("despite the identical expectations, Theorems 4 and 5 separate the processes polynomially — see E11")
	return tbl, nil
}
