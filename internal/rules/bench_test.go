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
// sweeps h); 2-Median is O(k²). Voter, 3-Majority and 2-Choices also run
// from Singleton(4096) and Singleton(10⁶), where few trials fall on each
// live color and the samplers draw per trial.
func BenchmarkStep(b *testing.B) {
	factories := []struct {
		name      string
		mk        func() core.Rule
		singleton bool
	}{
		{name: "voter", mk: func() core.Rule { return NewVoter() }, singleton: true},
		{name: "lazy-voter", mk: func() core.Rule { return NewLazyVoter(0.5) }},
		{name: "2-choices", mk: func() core.Rule { return NewTwoChoices() }, singleton: true},
		{name: "3-majority", mk: func() core.Rule { return NewThreeMajority() }, singleton: true},
		{name: "undecided", mk: func() core.Rule { return NewUndecided() }},
		{name: "2-median", mk: func() core.Rule { return NewTwoMedian() }},
		{name: "4-majority", mk: func() core.Rule { return NewHMajority(4) }},
	}
	starts := []struct {
		name string
		c    *config.Config
	}{
		{name: "n=100000,k=16", c: config.Balanced(100_000, 16)},
		{name: "n=100000,k=1024", c: config.Balanced(100_000, 1024)},
		{name: "singleton/n=4096", c: config.Singleton(4096)},
		{name: "singleton/n=1000000", c: config.Singleton(1_000_000)},
	}
	for _, f := range factories {
		for _, st := range starts {
			if st.c.Slots() == st.c.N() && !f.singleton {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", f.name, st.name), func(b *testing.B) {
				r := rng.New(1)
				rule := f.mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := st.c.Clone()
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

// BenchmarkChunkUpdate measures the per-node rule layer of the agents
// kernel on its own: 3-Majority over chunks of 256 nodes whose samples
// are uniform over k colors, pre-drawn so no sampling is timed. The
// per-node form calls Update through core.NodeRule once per node, as
// every rule without a chunk form does; the chunk form is the loop
// ChunkUpdater returns for 3-Majority. 64 distinct chunks cycle, so the
// branch predictor cannot learn the samples.
func BenchmarkChunkUpdate(b *testing.B) {
	const nodes, chunks = 256, 64
	forms := []struct {
		name   string
		update ChunkUpdate
	}{
		{"per-node", updateLoop{rule: NewThreeMajority(), h: 3}.updateEach},
		{"chunk", ChunkUpdater(NewThreeMajority())},
	}
	for _, k := range []int{2, 8, 16} {
		samples := make([]int, chunks*nodes*3)
		rng.New(1).FillIntN(k, samples)
		for _, f := range forms {
			b.Run(fmt.Sprintf("k=%d/%s", k, f.name), func(b *testing.B) {
				own := make([]int, nodes)
				next := make([]int, nodes)
				tally := make([]int, k)
				r := rng.New(2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := i % chunks
					f.update(own, samples[c*nodes*3:(c+1)*nodes*3], next, tally, r)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node")
			})
		}
	}
}
