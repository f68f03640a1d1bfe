package rules

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// BenchmarkStep measures one exact-law round per rule across color counts.
// The AC rules and the keeper/switcher rules are O(k); h-Majority's batch
// form is O(k + d·poly(h)) over d distinct counts (BenchmarkHMajorityStep
// sweeps h); 2-Median is O(k²).
func BenchmarkStep(b *testing.B) {
	factories := []struct {
		name string
		mk   func() core.Rule
	}{
		{name: "voter", mk: func() core.Rule { return NewVoter() }},
		{name: "lazy-voter", mk: func() core.Rule { return NewLazyVoter(0.5) }},
		{name: "2-choices", mk: func() core.Rule { return NewTwoChoices() }},
		{name: "3-majority", mk: func() core.Rule { return NewThreeMajority() }},
		{name: "undecided", mk: func() core.Rule { return NewUndecided() }},
		{name: "2-median", mk: func() core.Rule { return NewTwoMedian() }},
		{name: "4-majority", mk: func() core.Rule { return NewHMajority(4) }},
	}
	sizes := []struct{ n, k int }{
		{n: 100_000, k: 16},
		{n: 100_000, k: 1024},
	}
	for _, f := range factories {
		for _, sz := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d,k=%d", f.name, sz.n, sz.k), func(b *testing.B) {
				r := rng.New(1)
				start := config.Balanced(sz.n, sz.k)
				rule := f.mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := start.Clone()
					rule.Step(c, r)
				}
			})
		}
	}
}

// BenchmarkAlphaEval measures process-function evaluation (used by the
// dominance framework).
func BenchmarkAlphaEval(b *testing.B) {
	cfg := config.Balanced(1_000_000, 10_000)
	out := make([]float64, cfg.Slots())
	b.Run("voter", func(b *testing.B) {
		v := NewVoter()
		for i := 0; i < b.N; i++ {
			v.Alpha(cfg, out)
		}
	})
	b.Run("3-majority", func(b *testing.B) {
		m := NewThreeMajority()
		for i := 0; i < b.N; i++ {
			m.Alpha(cfg, out)
		}
	})
}
